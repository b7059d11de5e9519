// Lint fixture: the legitimate counterparts of the exact-fp rule. No
// EXPECT-LINT annotations, so the selftest fails if anything below fires,
// except the suppressed line.

namespace cloudlb_lint_fixture {

// A wider instruction set that fuses nothing: AVX2 does not imply FMA.
[[gnu::target("avx2")]] void avx2_kernel() {}
__attribute__((target("sse4.2"))) void sse_kernel() {}
[[gnu::optimize("O3")]] void unrolled() {}

// Comments and strings may name fma, -march or -ffast-math freely.
const char* kNote = "built without -march=native, -mfma or -ffast-math";
double fma_count = 0.0;  // an identifier, not an instruction set
[[gnu::target("avx2")]] void commented() {}  // never target("fma") here

// A reviewed exception says so in place.
[[gnu::target("fma")]] void audited() {}  // NOLINT-CLOUDLB(exact-fp): fixture

}  // namespace cloudlb_lint_fixture
