// Fixture: the bad half of every determinism rule (kernel zone). Each
// annotated line must produce exactly the expected finding; the self-test
// fails on any extra or missing finding. This file is never compiled.
#pragma once

namespace fixture {

inline void spin_up() {
  std::thread worker([] {});  // expect: sim-os-thread
  worker.join();
}

inline std::mutex big_lock;  // expect: sim-os-lock

inline int roll_dice() { return rand() % 6; }  // expect: sim-libc-rand

// lint-allow: sim-rules the retired blanket alias must not silence the sim-* family
inline int legacy_roll() { return rand(); }  // expect: sim-libc-rand

inline long stamp_now() { return time(nullptr); }  // expect: sim-wall-clock

inline auto epoch() { return std::chrono::system_clock::now(); }  // expect: sim-chrono-clock

inline void probe(timespec* ts) { clock_gettime(0, ts); }  // expect: sim-os-clock

inline unsigned hw_seed() { return std::random_device{}(); }  // expect: sim-random-device

inline void flush_pending(std::unordered_map<int, int>& pending) {
  for (const auto& [id, val] : pending) {  // expect: sim-unordered-iter
    schedule(id, val);
  }
}

inline std::map<Node*, int> retry_counts;  // expect: sim-ptr-key-map

inline std::unordered_map<fs::Path, int> pending_by_path;  // expect: path-key-map

inline std::map<fs::Path, Spec, Less> specs_by_path;  // expect: path-key-map

inline unsigned char* header_of(void* frame) {
  return reinterpret_cast<unsigned char*>(frame) - 4;  // expect: sim-reinterpret-coro
}

}  // namespace fixture
