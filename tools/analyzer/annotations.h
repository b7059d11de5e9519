// Shared helpers for the shard-safety effect-system checks
// (analyzer-shard-confined, analyzer-barrier-phase, analyzer-float-merge,
// analyzer-unranked-fanout). The annotations are attached in source via
// the no-op macros of src/util/shard_annotations.h, which expand to
// __attribute__((annotate("clb::..."))) under clang — the only compiler
// this tool parses with — and to nothing elsewhere.
#pragma once

#include "clang/AST/Attr.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "llvm/ADT/StringRef.h"

namespace cloudlb_analyzer {

// Annotation strings, kept in sync with src/util/shard_annotations.h.
inline constexpr llvm::StringLiteral kShardConfinedAnnot{
    "clb::shard_confined"};
inline constexpr llvm::StringLiteral kBarrierPhaseAnnot{
    "clb::barrier_phase"};
inline constexpr llvm::StringLiteral kCanonicalCombineAnnot{
    "clb::canonical_combine"};
inline constexpr llvm::StringLiteral kRankedFanoutAnnot{"clb::ranked_fanout"};

// True when any redeclaration of `decl` carries annotate("name").
// Annotations live on the header declaration while the analyzer usually
// holds the .cc definition, so the whole redeclaration chain is walked.
inline bool has_clb_annotation(const clang::Decl* decl,
                               llvm::StringRef name) {
  if (decl == nullptr) return false;
  for (const clang::Decl* redecl : decl->redecls())
    for (const auto* attr : redecl->specific_attrs<clang::AnnotateAttr>())
      if (attr->getAnnotation() == name) return true;
  return false;
}

// The annotated record a confined member access lands in: the field's
// own annotation or its parent record's CLB_SHARD_CONFINED marking.
inline bool field_is_shard_confined(const clang::FieldDecl* field,
                                    bool* via_record = nullptr) {
  if (field == nullptr) return false;
  if (has_clb_annotation(field, kShardConfinedAnnot)) {
    if (via_record != nullptr) *via_record = false;
    return true;
  }
  const auto* record =
      llvm::dyn_cast_or_null<clang::CXXRecordDecl>(field->getParent());
  if (record != nullptr && has_clb_annotation(record, kShardConfinedAnnot)) {
    if (via_record != nullptr) *via_record = true;
    return true;
  }
  return false;
}

}  // namespace cloudlb_analyzer
