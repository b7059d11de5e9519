// Hermetic stand-ins for the std and cloudlb types the analyzer's checks
// key on. Fixtures compile with `-nostdinc` against this header alone,
// so the selftest runs on any machine that can build cloudlb-analyzer —
// no system headers, no clang resource directory.
//
// Only names and shapes matter: the checks match on qualified names
// (std::unordered_map, std::random_device, cloudlb::SimTime, ...) and
// types, never on behavior, so functions stay undefined except where a
// template must instantiate over a fixture-local lambda type.
#pragma once

typedef decltype(sizeof(0)) cloudlb_mock_size_t;

// The shard-safety effect annotations (src/util/shard_annotations.h).
// The analyzer always parses as clang, so the attribute is spelled
// directly — no compiler gate needed in the hermetic mock.
#define CLB_SHARD_ANNOTATE(text) __attribute__((annotate(text)))
#define CLB_SHARD_CONFINED CLB_SHARD_ANNOTATE("clb::shard_confined")
#define CLB_BARRIER_PHASE CLB_SHARD_ANNOTATE("clb::barrier_phase")
#define CLB_CANONICAL_COMBINE CLB_SHARD_ANNOTATE("clb::canonical_combine")
#define CLB_RANKED_FANOUT CLB_SHARD_ANNOTATE("clb::ranked_fanout")
#define CLB_WARM_PATH CLB_SHARD_ANNOTATE("clb::warm_path")

namespace std {

template <class T>
struct vector {
  void push_back(const T&);
  void emplace_back(const T&);
  T* begin();
  T* end();
  const T* begin() const;
  const T* end() const;
};

template <class A, class B>
struct pair {
  A first;
  B second;
};

template <class K, class V>
struct unordered_map {
  using value_type = pair<const K, V>;
  value_type* begin();
  value_type* end();
  const value_type* begin() const;
  const value_type* end() const;
};

template <class K>
struct unordered_set {
  const K* begin() const;
  const K* end() const;
};

template <class K, class V>
struct map {
  using value_type = pair<const K, V>;
  const value_type* begin() const;
  const value_type* end() const;
};

struct random_device {
  unsigned operator()();
};

namespace chrono {
struct steady_clock {
  struct time_point {};
  static time_point now();
};
struct system_clock {
  struct time_point {};
  static time_point now();
};
}  // namespace chrono

}  // namespace std

extern "C" {
long time(long*);
int rand(void);
void srand(unsigned);
int clock_gettime(int, void*);
}

namespace cloudlb {

class SimTime {
 public:
  static SimTime nanos(long long);
  static SimTime millis(long long);
  static SimTime from_seconds(double);
  static SimTime zero();
  long long ns() const;
  double to_seconds() const;
  friend SimTime operator*(SimTime, double);
  friend SimTime operator*(double, SimTime);
  friend SimTime operator/(SimTime, long long);
  friend bool operator==(SimTime, SimTime);
  friend bool operator<(SimTime, SimTime);
};

struct EventHandle {
  int slot = -1;
  unsigned gen = 0;
  bool valid() const;
};

class Simulator {
 public:
  // The templates need inline bodies: fixtures instantiate them with
  // local lambda types, and a specialization over a local type can never
  // be defined in another TU (GCC rejects the bodiless form outright).
  template <class F>
  EventHandle schedule_after(SimTime, F) {
    return EventHandle{};
  }
  template <class F>
  EventHandle schedule_at(SimTime, F) {
    return EventHandle{};
  }
  [[nodiscard]] bool cancel(EventHandle);
  [[nodiscard]] bool step();
  SimTime now() const;
  void run();
};

class EngineCore {
 public:
  template <class F>
  EventHandle schedule_at(SimTime, F) {
    return EventHandle{};
  }
  template <class F>
  EventHandle schedule_after(SimTime, F) {
    return EventHandle{};
  }
  template <class F>
  EventHandle schedule_at_ranked(SimTime, SimTime, unsigned long long, F) {
    return EventHandle{};
  }
  template <class F>
  EventHandle schedule_at_stamped(SimTime, SimTime, F) {
    return EventHandle{};
  }
  [[nodiscard]] bool cancel(EventHandle);
  void set_current_rank(unsigned long long);
  SimTime now() const;
};

class ShardedRuntimeHost {
 public:
  EngineCore& engine_of_shard(int);
  EngineCore& engine_of_pe(int);
  EngineCore& engine_of_node(int);
  EngineCore& engine_of_core(int);
  bool in_window() const;
};

class WorkerTeam {
 public:
  explicit WorkerTeam(int);
  int workers() const;
  template <class F>
  CLB_SHARD_CONFINED void run_round(F fn) {
    fn(0);
  }
};

struct FaultPlan {
  [[nodiscard]] static FaultPlan parse(const char*);
};

[[nodiscard]] bool attempt_migration(int chare);
[[nodiscard]] bool retry_or_abandon(int chare);

}  // namespace cloudlb
