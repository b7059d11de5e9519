// analyzer-float-merge: floating-point accumulation across per-shard
// data must flow through a CLB_CANONICAL_COMBINE helper — the static
// twin of the sharded engine's (shard, seq) combine rule. Float addition
// is not associative, so a `double += ...` folded per shard (or per
// element of shard-confined state) in an arbitrary loop reproduces the
// legacy engine's sums only if the iteration order is pinned; the
// canonical combiners (ShardPartition::reduction_sum, chare_cpu, ...)
// are written and audited for exactly that, ad-hoc folds are not.
//
// Scope: loops (for / range-for / while / do) inside functions NOT
// annotated CLB_CANONICAL_COMBINE whose body touches per-shard data —
// a CLB_SHARD_CONFINED member access or a call to a canonical combiner,
// with one level of helper calls followed as in analyzer-unordered-accum.
// Inside such a loop, a floating compound assignment whose target
// outlives the loop body is flagged, as is a call to a visible helper
// that performs one. Integer accumulation is order-independent and
// allowed; accumulators declared inside the loop body reset every
// iteration and are allowed.
#include "analyzer.h"
#include "annotations.h"

#include <vector>

#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"

namespace cloudlb_analyzer {

namespace {

using namespace clang::ast_matchers;

constexpr char kCheck[] = "analyzer-float-merge";

bool is_floating(clang::QualType type) {
  return type.getNonReferenceType()->isFloatingType();
}

bool declared_within(const clang::Decl* decl, const clang::SourceManager& sm,
                     clang::SourceLocation begin, clang::SourceLocation end) {
  if (decl == nullptr || begin.isInvalid()) return false;
  const clang::SourceLocation loc = sm.getFileLoc(decl->getLocation());
  return sm.getFileID(loc) == sm.getFileID(begin) &&
         sm.getFileOffset(loc) >= sm.getFileOffset(begin) &&
         sm.getFileOffset(loc) < sm.getFileOffset(end);
}

// Does this statement tree touch per-shard data: a shard-confined member
// access, a call to a canonical combiner, or (one level down) a call to
// a visible helper that does either?
class ShardTouchScanner
    : public clang::RecursiveASTVisitor<ShardTouchScanner> {
 public:
  explicit ShardTouchScanner(int helper_depth)
      : helper_depth_{helper_depth} {}

  bool touched = false;

  bool VisitMemberExpr(clang::MemberExpr* member) {
    const auto* field =
        llvm::dyn_cast<clang::FieldDecl>(member->getMemberDecl());
    if (field_is_shard_confined(field)) touched = true;
    return !touched;
  }

  bool VisitCallExpr(clang::CallExpr* call) {
    const clang::FunctionDecl* callee = call->getDirectCallee();
    if (callee == nullptr) return true;
    if (has_clb_annotation(callee, kCanonicalCombineAnnot)) {
      touched = true;
      return false;
    }
    if (helper_depth_ <= 0) return true;
    const clang::FunctionDecl* def = nullptr;
    if (!callee->hasBody(def) || def->getBody() == nullptr) return true;
    ShardTouchScanner inner{helper_depth_ - 1};
    inner.TraverseStmt(def->getBody());
    if (inner.touched) touched = true;
    return !touched;
  }

 private:
  int helper_depth_;
};

// Flags order-dependent floating folds inside one triggered loop body.
class FloatFoldScanner
    : public clang::RecursiveASTVisitor<FloatFoldScanner> {
 public:
  FloatFoldScanner(AnalyzerContext* ctx, clang::ASTContext& ast,
                   clang::SourceLocation body_begin,
                   clang::SourceLocation body_end, int helper_depth)
      : ctx_{ctx},
        ast_{ast},
        body_begin_{body_begin},
        body_end_{body_end},
        helper_depth_{helper_depth} {}

  bool found = false;

  bool VisitBinaryOperator(clang::BinaryOperator* op) {
    if (!op->isCompoundAssignmentOp()) return true;
    const clang::Expr* lhs = op->getLHS()->IgnoreParenImpCasts();
    if (!is_floating(lhs->getType())) return true;
    if (target_is_loop_local(lhs)) return true;
    record(op->getBeginLoc(),
           "floating-point accumulation over per-shard data outside a "
           "CLB_CANONICAL_COMBINE helper; float addition is not "
           "associative — fold through a canonical combiner (or mark "
           "this function CLB_CANONICAL_COMBINE and pin its order)");
    return true;
  }

  bool VisitCallExpr(clang::CallExpr* call) {
    if (helper_depth_ <= 0) return true;
    if (llvm::isa<clang::CXXMemberCallExpr>(call)) return true;
    const clang::FunctionDecl* callee = call->getDirectCallee();
    if (callee == nullptr ||
        has_clb_annotation(callee, kCanonicalCombineAnnot))
      return true;
    const clang::FunctionDecl* def = nullptr;
    if (!callee->hasBody(def) || def->getBody() == nullptr) return true;
    FloatFoldScanner inner{nullptr, ast_, clang::SourceLocation{},
                           clang::SourceLocation{}, helper_depth_ - 1};
    inner.TraverseStmt(def->getBody());
    if (inner.found)
      record(call->getBeginLoc(),
             "call to '" + callee->getNameAsString() +
                 "' accumulates floating-point state (see its "
                 "definition) over per-shard data outside a "
                 "CLB_CANONICAL_COMBINE helper");
    return true;
  }

 private:
  void record(clang::SourceLocation loc, const std::string& message) {
    found = true;
    if (ctx_ != nullptr) ctx_->report(ast_, loc, kCheck, message);
  }

  bool target_is_loop_local(const clang::Expr* target) const {
    if (const auto* ref = llvm::dyn_cast<clang::DeclRefExpr>(target))
      return declared_within(ref->getDecl(), ast_.getSourceManager(),
                             body_begin_, body_end_);
    return false;  // members and array elements outlive the iteration
  }

  AnalyzerContext* ctx_;  // null: probe mode (helper bodies)
  clang::ASTContext& ast_;
  clang::SourceLocation body_begin_;
  clang::SourceLocation body_end_;
  int helper_depth_;
};

// Collects every loop statement in a function body (lambdas included).
class LoopCollector : public clang::RecursiveASTVisitor<LoopCollector> {
 public:
  std::vector<const clang::Stmt*> bodies;

  bool VisitForStmt(clang::ForStmt* s) { return add(s->getBody()); }
  bool VisitCXXForRangeStmt(clang::CXXForRangeStmt* s) {
    return add(s->getBody());
  }
  bool VisitWhileStmt(clang::WhileStmt* s) { return add(s->getBody()); }
  bool VisitDoStmt(clang::DoStmt* s) { return add(s->getBody()); }

 private:
  bool add(const clang::Stmt* body) {
    if (body != nullptr) bodies.push_back(body);
    return true;
  }
};

class FloatMergeCallback : public MatchFinder::MatchCallback {
 public:
  explicit FloatMergeCallback(AnalyzerContext& ctx) : ctx_{ctx} {}

  void run(const MatchFinder::MatchResult& result) override {
    const auto* fn = result.Nodes.getNodeAs<clang::FunctionDecl>("fn");
    if (fn == nullptr || !fn->doesThisDeclarationHaveABody()) return;
    if (has_clb_annotation(fn, kCanonicalCombineAnnot)) return;
    LoopCollector loops;
    loops.TraverseStmt(fn->getBody());
    const clang::SourceManager& sm = result.Context->getSourceManager();
    for (const clang::Stmt* body : loops.bodies) {
      ShardTouchScanner touch{/*helper_depth=*/1};
      touch.TraverseStmt(const_cast<clang::Stmt*>(body));
      if (!touch.touched) continue;
      FloatFoldScanner scanner{&ctx_, *result.Context,
                               sm.getFileLoc(body->getBeginLoc()),
                               sm.getFileLoc(body->getEndLoc()),
                               /*helper_depth=*/1};
      scanner.TraverseStmt(const_cast<clang::Stmt*>(body));
    }
  }

 private:
  AnalyzerContext& ctx_;
};

}  // namespace

void register_float_merge(MatchFinder& finder, AnalyzerContext& ctx) {
  auto* callback = new FloatMergeCallback{ctx};
  finder.addMatcher(
      functionDecl(isDefinition(), hasBody(compoundStmt())).bind("fn"),
      callback);
}

}  // namespace cloudlb_analyzer
