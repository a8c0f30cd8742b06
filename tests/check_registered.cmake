# Fails when a tests/*_test.cpp file is not built by tests/CMakeLists.txt.
# A suite that is never registered never runs, and nothing else notices.
#
#   cmake -DTESTS_DIR=<tests dir> -P check_registered.cmake
file(GLOB sources RELATIVE "${TESTS_DIR}" "${TESTS_DIR}/*_test.cpp")
file(READ "${TESTS_DIR}/CMakeLists.txt" listing)
string(REGEX REPLACE "#[^\n]*" "" listing "${listing}")
set(missing "")
foreach(source IN LISTS sources)
  string(REGEX REPLACE "\\.cpp$" "" name "${source}")
  if(NOT listing MATCHES "\\(${name}[ \n)]")
    list(APPEND missing "${source}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR "not registered in tests/CMakeLists.txt: ${missing}")
endif()
