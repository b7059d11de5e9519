// Lint fixture: target and optimize attributes and pragmas that would let
// the compiler fuse a multiply and an add, or reassociate, inside a
// kernel that must match its scalar reference bit for bit. Every
// annotated line must trip exactly the rule named in its EXPECT-LINT
// comment.

namespace cloudlb_lint_fixture {

[[gnu::target("fma")]] void fused() {}                // EXPECT-LINT(exact-fp)
[[gnu::target("avx2,fma")]] void avx2_fma() {}        // EXPECT-LINT(exact-fp)
__attribute__((target("avx512f"))) void wide() {}     // EXPECT-LINT(exact-fp)
__attribute__((target("arch=haswell"))) void cpu() {} // EXPECT-LINT(exact-fp)
__attribute__((target("avx2,tune=skylake"))) void t() {}  // EXPECT-LINT(exact-fp)
__attribute__((target_clones("fma4", "default"))) void c() {}  // EXPECT-LINT(exact-fp)
#pragma GCC target("avx512vl")                        // EXPECT-LINT(exact-fp)
#pragma GCC optimize("fast-math")                     // EXPECT-LINT(exact-fp)
__attribute__((optimize("-ffp-contract=fast"))) void contracted() {}  // EXPECT-LINT(exact-fp)
[[gnu::optimize("Ofast")]] void fastest() {}          // EXPECT-LINT(exact-fp)

}  // namespace cloudlb_lint_fixture
