# Lint fixture: compiler flags that would let the compiler fuse or
# reassociate floating-point operations, in a CMake file. Annotated lines
# must trip exactly the named rule; the rest must stay quiet.

add_compile_options(-march=native)                # EXPECT-LINT(exact-fp)
add_compile_options(-mfma)                        # EXPECT-LINT(exact-fp)
target_compile_options(kernels PRIVATE -mavx512f) # EXPECT-LINT(exact-fp)
set(CMAKE_CXX_FLAGS "${CMAKE_CXX_FLAGS} -ffast-math")  # EXPECT-LINT(exact-fp)
string(APPEND CMAKE_CXX_FLAGS_RELEASE " -ffp-contract=fast")  # EXPECT-LINT(exact-fp)
set(CMAKE_CXX_FLAGS_RELEASE "-Ofast")             # EXPECT-LINT(exact-fp)
# A '#' inside a quoted argument starts no comment.
set(FLAGS "#1 -march=native")                     # EXPECT-LINT(exact-fp)

# Quiet: flags that keep results exact, and flags named in comments only
# (-march=native, -ffast-math).
add_compile_options(-Wall -Wextra -ffp-contract=off)
set(CMAKE_CXX_FLAGS_RELEASE "-O3 -DNDEBUG")
add_compile_options(-mfma)  # NOLINT-CLOUDLB(exact-fp): reviewed fixture
