#pragma once

// Shard-safety effect annotations for the partitioned runtime.
//
// PR 8's bit-identity guarantees rest on concurrency conventions that
// the type system cannot express: shard-confined state is touched only
// by its owner shard's window execution, the global LB database and
// reduction results mutate only in serialized barrier phases, floating
// point merges across shards flow through the canonical (shard, seq)
// combiners, and synchronized fan-outs propagate ordering ranks. These
// macros encode the conventions as source annotations — in the lineage
// of Clang's thread-safety attributes — so `cloudlb-analyzer`
// (tools/analyzer/, docs/static-analysis.md) can enforce them at
// analysis time instead of hoping a TSan seed trips over a violation.
//
// The macros are strictly zero-cost: under Clang they expand to
// `__attribute__((annotate(...)))`, which affects neither layout nor
// codegen (tests/annotation_test.cc pins layout/trait equivalence and
// the golden trace digest covers behavior); under any other compiler
// they expand to nothing. Apply them at declarations:
//
//   struct CLB_SHARD_CONFINED ShardSegment { ... };   // type-level
//   CLB_SHARD_CONFINED std::vector<Pe> pes_;          // field-level
//   CLB_BARRIER_PHASE void merge_window_state();      // function-level
//
// Semantics (enforced by the analyzer checks named in brackets):
//
// - CLB_SHARD_CONFINED on a field or type: the data belongs to one
//   shard's window execution; only functions themselves carrying a
//   shard-context annotation (or called directly from one) may touch
//   it. On a function: the function *is* window-execution context —
//   it runs inside a shard's conservative window (or inside a context
//   some annotated creator arranged) and is licensed to touch confined
//   data. [analyzer-shard-confined]
// - CLB_BARRIER_PHASE on a function: runs only between windows, on the
//   coordinating thread, while every shard is quiescent. Calling one
//   from window-execution or worker-team task context is flagged
//   unless the call is guarded by an `in_window()` check.
//   [analyzer-barrier-phase]
// - CLB_CANONICAL_COMBINE on a function: a blessed floating-point
//   merge helper that folds per-shard partials in a fixed canonical
//   order (shard index, PE index, (shard, seq)). FP accumulation over
//   per-shard data anywhere else is flagged. [analyzer-float-merge]
// - CLB_RANKED_FANOUT on a function: it schedules a synchronized
//   per-chare burst whose continuations need explicit ordering ranks;
//   inside it, a loop scheduling on an `EngineCore` must use
//   `schedule_at_ranked`/`schedule_at_stamped`, never bare
//   `schedule_at`/`schedule_after`. [analyzer-unranked-fanout]

#if defined(__clang__)
#define CLB_SHARD_ANNOTATE(text) __attribute__((annotate(text)))
#else
#define CLB_SHARD_ANNOTATE(text)
#endif

#define CLB_SHARD_CONFINED CLB_SHARD_ANNOTATE("clb::shard_confined")
#define CLB_BARRIER_PHASE CLB_SHARD_ANNOTATE("clb::barrier_phase")
#define CLB_CANONICAL_COMBINE CLB_SHARD_ANNOTATE("clb::canonical_combine")
#define CLB_RANKED_FANOUT CLB_SHARD_ANNOTATE("clb::ranked_fanout")
