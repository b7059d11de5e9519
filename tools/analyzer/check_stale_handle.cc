// analyzer-stale-handle: an EventHandle names a {slot, generation} pair
// inside the event engine; cancel() retires the generation, so the
// handle is dead the moment cancel returns. Reading it afterwards
// (valid(), another cancel, passing it on) acts on a slot that may have
// been recycled for an unrelated event — the classic source of
// "cancelled the wrong timer" heisenbugs.
//
// The engine family has two cancelling classes (Simulator is the
// EngineCore legacy facade), tracked identically.
//
// The check walks each function body in source order, per handle
// variable (locals and members): after a cancel(h), any use of h before
// a reassignment is flagged. Uses inside the cancel call itself (e.g.
// CLB_CHECK(sim.cancel(h))) are part of the cancel and exempt. Lambda
// bodies are opaque: they run at a different time, so no ordering fact
// about the enclosing body applies to them.
//
// ShardedRuntimeHost adds a second defect shape: a plain EventHandle
// returned by one shard engine's schedule (host.engine_of_shard(i).
// schedule_at(...)) carries no shard stamp, so cancelling it through a
// DIFFERENT shard's engine silently acts on that engine's unrelated
// slot. When both the scheduling and the cancelling accessor take
// integer-literal arguments the mismatch is statically certain and is
// flagged; anything less certain (variables, computed shards) is left
// alone — the conservative direction for a zero-FP tool.
#include "analyzer.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/SmallString.h"

namespace cloudlb_analyzer {

namespace {

using namespace clang::ast_matchers;

constexpr char kCheck[] = "analyzer-stale-handle";

bool is_event_handle(clang::QualType type) {
  type = type.getNonReferenceType().getCanonicalType();
  const auto* record = type->getAsCXXRecordDecl();
  if (record == nullptr) return false;
  const llvm::StringRef name = record->getName();
  return name == "EventHandle";
}

// The variable or field an lvalue expression names, when it is a plain
// EventHandle; nullptr for anything fancier (array elements, calls).
const clang::Decl* handle_target(const clang::Expr* expr) {
  expr = expr->IgnoreParenImpCasts();
  if (const auto* ref = llvm::dyn_cast<clang::DeclRefExpr>(expr))
    return is_event_handle(ref->getType()) ? ref->getDecl() : nullptr;
  if (const auto* member = llvm::dyn_cast<clang::MemberExpr>(expr))
    return is_event_handle(member->getType()) ? member->getMemberDecl()
                                              : nullptr;
  return nullptr;
}

struct Event {
  enum Kind { kAssign = 0, kUse = 1, kCancel = 2 };  // tie-break order
  unsigned offset;
  Kind kind;
  const clang::Decl* handle;
  clang::SourceLocation loc;
  unsigned cancel_end = 0;  // one past the cancel call, for kCancel
  // Shard-engine origin, e.g. "engine_of_shard(0)", when statically
  // known: the engine the handle was scheduled on
  // (kAssign) or the engine the cancel goes through (kCancel). Empty
  // when unknown.
  std::string engine_key;
};

// "engine_of_shard(0)"-style key for a ShardedRuntimeHost per-shard
// engine accessor call with a literal argument; "" for anything else.
std::string engine_accessor_key(const clang::Expr* expr) {
  if (expr == nullptr) return {};
  const auto* call =
      llvm::dyn_cast<clang::CXXMemberCallExpr>(expr->IgnoreParenImpCasts());
  if (call == nullptr || call->getNumArgs() != 1) return {};
  const clang::CXXMethodDecl* method = call->getMethodDecl();
  if (method == nullptr) return {};
  const llvm::StringRef name = method->getName();
  if (name != "engine_of_shard" && name != "engine_of_pe" &&
      name != "engine_of_node" && name != "engine_of_core")
    return {};
  const clang::CXXRecordDecl* cls = method->getParent();
  if (cls == nullptr || cls->getName() != "ShardedRuntimeHost") return {};
  const auto* literal = llvm::dyn_cast<clang::IntegerLiteral>(
      call->getArg(0)->IgnoreParenImpCasts());
  if (literal == nullptr) return {};
  llvm::SmallString<16> value;
  literal->getValue().toStringUnsigned(value);
  return name.str() + "(" + std::string(value.str()) + ")";
}

// The accessor part of a key ("engine_of_shard(0)" -> "engine_of_shard").
std::string accessor_name(const std::string& key) {
  return key.substr(0, key.find('('));
}

// When `expr` is (modulo temporaries) a schedule call on a per-shard
// engine accessor, the accessor's key; "" otherwise.
std::string schedule_origin_key(const clang::Expr* expr) {
  if (expr == nullptr) return {};
  expr = expr->IgnoreParenImpCasts();
  for (;;) {
    if (const auto* cleanups =
            llvm::dyn_cast<clang::ExprWithCleanups>(expr)) {
      expr = cleanups->getSubExpr()->IgnoreParenImpCasts();
      continue;
    }
    if (const auto* bind =
            llvm::dyn_cast<clang::CXXBindTemporaryExpr>(expr)) {
      expr = bind->getSubExpr()->IgnoreParenImpCasts();
      continue;
    }
    if (const auto* mat =
            llvm::dyn_cast<clang::MaterializeTemporaryExpr>(expr)) {
      expr = mat->getSubExpr()->IgnoreParenImpCasts();
      continue;
    }
    if (const auto* construct =
            llvm::dyn_cast<clang::CXXConstructExpr>(expr)) {
      if (construct->getNumArgs() != 1) break;
      expr = construct->getArg(0)->IgnoreParenImpCasts();
      continue;
    }
    break;
  }
  const auto* call = llvm::dyn_cast<clang::CXXMemberCallExpr>(expr);
  if (call == nullptr) return {};
  const clang::CXXMethodDecl* method = call->getMethodDecl();
  if (method == nullptr) return {};
  const llvm::StringRef name = method->getName();
  if (name != "schedule_at" && name != "schedule_after" &&
      name != "schedule_at_ranked" && name != "schedule_at_stamped")
    return {};
  return engine_accessor_key(call->getImplicitObjectArgument());
}

class HandleEventCollector
    : public clang::RecursiveASTVisitor<HandleEventCollector> {
 public:
  explicit HandleEventCollector(const clang::SourceManager& sm) : sm_{sm} {}

  std::vector<Event> events;

  // Lambda bodies execute later (or never); their uses carry no ordering
  // relation to the enclosing statements.
  bool TraverseLambdaExpr(clang::LambdaExpr*) { return true; }

  bool VisitCXXMemberCallExpr(clang::CXXMemberCallExpr* call) {
    const clang::CXXMethodDecl* method = call->getMethodDecl();
    if (method == nullptr || method->getName() != "cancel" ||
        call->getNumArgs() < 1)
      return true;
    const clang::CXXRecordDecl* cls = method->getParent();
    if (cls == nullptr) return true;
    // Simulator inherits cancel() from EngineCore, so getParent() names
    // the declaring class, not the callee's static type.
    const llvm::StringRef owner = cls->getName();
    if (owner != "Simulator" && owner != "EngineCore") return true;
    const clang::Decl* handle = handle_target(call->getArg(0));
    if (handle == nullptr) return true;
    add(Event::kCancel, call->getBeginLoc(), handle,
        offset_of(call->getEndLoc()) + 1,
        engine_accessor_key(call->getImplicitObjectArgument()));
    return true;
  }

  // Plain assignment through the implicit operator= of the handle
  // struct surfaces as an operator call; `h = ...` revives the handle.
  bool VisitCXXOperatorCallExpr(clang::CXXOperatorCallExpr* call) {
    if (call->getOperator() != clang::OO_Equal || call->getNumArgs() < 2)
      return true;
    if (const clang::Decl* handle = handle_target(call->getArg(0)))
      add(Event::kAssign, call->getArg(0)->getBeginLoc(), handle, 0,
          schedule_origin_key(call->getArg(1)));
    return true;
  }

  bool VisitBinaryOperator(clang::BinaryOperator* op) {
    if (!op->isAssignmentOp()) return true;
    if (const clang::Decl* handle = handle_target(op->getLHS()))
      add(Event::kAssign, op->getLHS()->getBeginLoc(), handle, 0,
          op->getOpcode() == clang::BO_Assign
              ? schedule_origin_key(op->getRHS())
              : std::string{});
    return true;
  }

  // `EventHandle h = host.engine_of_shard(0).schedule_at(...)` — the
  // initializing declaration is the handle's first assignment and fixes
  // its scheduling engine.
  bool VisitVarDecl(clang::VarDecl* var) {
    if (!var->hasInit() || !is_event_handle(var->getType())) return true;
    add(Event::kAssign, var->getLocation(), var->getCanonicalDecl(), 0,
        schedule_origin_key(var->getInit()));
    return true;
  }

  bool VisitDeclRefExpr(clang::DeclRefExpr* ref) {
    if (is_event_handle(ref->getType()))
      add(Event::kUse, ref->getLocation(), ref->getDecl());
    return true;
  }

  bool VisitMemberExpr(clang::MemberExpr* member) {
    if (is_event_handle(member->getType()))
      add(Event::kUse, member->getMemberLoc(), member->getMemberDecl());
    return true;
  }

 private:
  unsigned offset_of(clang::SourceLocation loc) const {
    return sm_.getFileOffset(sm_.getFileLoc(loc));
  }

  void add(Event::Kind kind, clang::SourceLocation loc,
           const clang::Decl* handle, unsigned cancel_end = 0,
           std::string engine_key = {}) {
    events.push_back(Event{offset_of(loc), kind, handle, loc, cancel_end,
                           std::move(engine_key)});
  }

  const clang::SourceManager& sm_;
};

class StaleHandleCallback : public MatchFinder::MatchCallback {
 public:
  explicit StaleHandleCallback(AnalyzerContext& ctx) : ctx_{ctx} {}

  void run(const MatchFinder::MatchResult& result) override {
    const auto* fn = result.Nodes.getNodeAs<clang::FunctionDecl>("fn");
    if (fn == nullptr || !fn->doesThisDeclarationHaveABody()) return;
    HandleEventCollector collector{result.Context->getSourceManager()};
    collector.TraverseStmt(fn->getBody());
    std::stable_sort(collector.events.begin(), collector.events.end(),
                     [](const Event& a, const Event& b) {
                       if (a.offset != b.offset) return a.offset < b.offset;
                       return a.kind < b.kind;
                     });
    // handle -> end offset of the cancel that retired it
    std::map<const clang::Decl*, unsigned> cancelled;
    // handle -> shard-engine accessor it was last scheduled through
    // (only when statically known from a literal-argument accessor)
    std::map<const clang::Decl*, std::string> origin;
    for (const Event& e : collector.events) {
      switch (e.kind) {
        case Event::kCancel: {
          // Cross-shard cancel: the handle's scheduling engine and the
          // cancelling engine are both statically known and differ.
          // Only same-accessor keys compare (engine_of_pe(0) vs
          // engine_of_node(0) may legitimately be one engine; only
          // engine_of_X(a) vs engine_of_X(b), a != b, is certain).
          const auto from = origin.find(e.handle);
          if (from != origin.end() && !e.engine_key.empty() &&
              from->second != e.engine_key &&
              accessor_name(from->second) == accessor_name(e.engine_key))
            ctx_.report(*result.Context, e.loc, kCheck,
                        "event handle scheduled via " + from->second +
                            " is cancelled through " + e.engine_key +
                            "; a plain EventHandle carries no shard "
                            "stamp, so a foreign engine's cancel acts "
                            "on an unrelated slot — cancel through the "
                            "scheduling shard's engine");
          // A second cancel of an already-retired handle is itself a
          // stale use (its argument read is exempt as part of the call,
          // so catch it here).
          const auto it = cancelled.find(e.handle);
          if (it != cancelled.end() && e.offset >= it->second)
            ctx_.report(*result.Context, e.loc, kCheck,
                        "event handle is cancelled again after cancel() "
                        "already retired it; reassign the handle between "
                        "cancels");
          cancelled[e.handle] = e.cancel_end;
          break;
        }
        case Event::kAssign:
          cancelled.erase(e.handle);
          if (e.engine_key.empty())
            origin.erase(e.handle);
          else
            origin[e.handle] = e.engine_key;
          break;
        case Event::kUse: {
          const auto it = cancelled.find(e.handle);
          if (it == cancelled.end() || e.offset < it->second) break;
          ctx_.report(*result.Context, e.loc, kCheck,
                      "event handle is read after cancel() retired it; "
                      "reassign the handle (e.g. a fresh {} or a new "
                      "schedule) before reuse");
          cancelled.erase(it);  // one report per stale window
          break;
        }
      }
    }
  }

 private:
  AnalyzerContext& ctx_;
};

}  // namespace

void register_stale_handle(MatchFinder& finder, AnalyzerContext& ctx) {
  auto* callback = new StaleHandleCallback{ctx};
  finder.addMatcher(
      functionDecl(isDefinition(), hasBody(compoundStmt())).bind("fn"),
      callback);
}

}  // namespace cloudlb_analyzer
