// Behavior tests for tools/mg_analyze.cc: each forbidden pattern is planted
// in a fixture tree and the real binary (path injected via MG_ANALYZE_BIN)
// must exit non-zero naming the right rule; clean trees and
// mg_analyze:allow() annotations must pass. The `analyze` ctest runs the
// same binary over the actual repository.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace fs = std::filesystem;

namespace {

struct AnalyzeResult {
  int exit_code = -1;
  std::string output;
};

AnalyzeResult RunAnalyze(const fs::path& root) {
  const std::string cmd =
      std::string(MG_ANALYZE_BIN) + " " + root.string() + " 2>&1";
  AnalyzeResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
  if (pipe == nullptr) return result;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void WriteFile(const fs::path& p, const std::string& content) {
  fs::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary);
  ASSERT_TRUE(out.good()) << p;
  out << content;
}

// A fresh fixture root per test; README.md documents the one sanctioned
// knob fixtures may reference.
class MgAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "mg_analyze_fixture" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    WriteFile(root_ / "README.md",
              "Runtime knobs:\n- `MOCOGRAD_DOCUMENTED_KNOB=n` does a thing\n");
    WriteFile(root_ / "src" / "base" / "ok.cc",
              "namespace mocograd {\nint Fine() { return 1; }\n}\n");
  }

  // Writes a two-kernel table header plus all five tier TUs assigning both
  // fields (the tier-table fixture baseline; tests then mutate one TU).
  void WriteCompleteKernelTable() {
    WriteFile(root_ / "src" / "base" / "vec_kernels.h",
              "struct VecKernels {\n"
              "  const char* name;\n"
              "  void (*axpy)(int n, float a, const float* x, float* y);\n"
              "  void (*dot)(int n, const float* x, const float* y, "
              "float* out);\n"
              "};\n");
    for (const char* tier : {"scalar", "sse", "avx2", "avx512", "neon"}) {
      WriteFile(root_ / "src" / "base" /
                    ("vec_kernels_tier_" + std::string(tier) + ".cc"),
                "#include \"base/vec_kernels.h\"\n"
                "static VecKernels Make() {\n"
                "  VecKernels k;\n"
                "  k.axpy = nullptr;\n"
                "  k.dot = nullptr;\n"
                "  return k;\n"
                "}\n");
    }
  }

  fs::path root_;
};

TEST_F(MgAnalyzeTest, CleanTreePasses) {
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("mg_analyze: OK"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, UsageErrorExitsTwo) {
  const AnalyzeResult r = RunAnalyze(root_ / "no_such_subdir");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// ---------------------------------------------------------------------------
// Ported mg_lint rules.
// ---------------------------------------------------------------------------

TEST_F(MgAnalyzeTest, FlagsRand) {
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "int Noise() { return rand(); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[nondeterminism]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad.cc:1"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsTimeAndClock) {
  WriteFile(root_ / "src" / "tensor" / "bad.cc",
            "long Now() { return time(nullptr); }\n"
            "long Ticks() { return clock(); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("bad.cc:1: [nondeterminism]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bad.cc:2: [nondeterminism]"), std::string::npos)
      << r.output;
}

TEST_F(MgAnalyzeTest, RuntimeDoesNotTripTimeRule) {
  WriteFile(root_ / "src" / "base" / "fine.cc",
            "int runtime(int x) { return x; }\n"
            "int Call() { return runtime(3); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsUnorderedContainerUse) {
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "#include <unordered_map>\n"
            "std::unordered_map<int, int> g_table;\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The use site (line 2) is flagged; the #include line is exempt.
  EXPECT_NE(r.output.find("bad.cc:2: [nondeterminism]"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("bad.cc:1:"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsStdReduce) {
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "float Sum(const float* p, int n) {\n"
            "  return std::reduce(p, p + n);\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[nondeterminism]"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsOpenMpPragma) {
  WriteFile(root_ / "src" / "tensor" / "bad.cc",
            "#pragma omp parallel for\n"
            "void K() {}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[nondeterminism]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("omp"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsHotPathAllocation) {
  WriteFile(root_ / "src" / "tensor" / "bad.cc",
            "#include <vector>\n"
            "// MG_HOT_PATH\n"
            "void Kernel(std::vector<float>& v) { v.push_back(1.0f); }\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[hot-path-alloc]"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, HotPathEndClosesRegion) {
  WriteFile(root_ / "src" / "tensor" / "fine.cc",
            "#include <vector>\n"
            "// MG_HOT_PATH\n"
            "void Kernel(const float* x) { (void)x; }\n"
            "// MG_HOT_PATH_END\n"
            "void Setup(std::vector<float>& v) { v.push_back(1.0f); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsRawNewInHotPath) {
  WriteFile(root_ / "src" / "tensor" / "bad.cc",
            "// MG_HOT_PATH\n"
            "float* Kernel() { return new float[64]; }\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[hot-path-alloc]"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsAllocInServeHotPath) {
  // The serving request path (src/serve) carries the same hot-path
  // contract as the kernels: inside its MG_HOT_PATH region all scratch
  // comes from the arena, never the allocator.
  WriteFile(root_ / "src" / "serve" / "bad.cc",
            "#include <vector>\n"
            "// MG_HOT_PATH\n"
            "void Forward(const float* in, int rows) {\n"
            "  std::vector<float> activations(rows);\n"
            "  (void)in;\n"
            "}\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[hot-path-alloc]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("serve/bad.cc"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsLayeringBackEdge) {
  WriteFile(root_ / "src" / "base" / "bad.cc",
            "#include \"tensor/tensor.h\"\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("back-edge"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsSiblingLayerInclude) {
  WriteFile(root_ / "src" / "nn" / "bad.cc",
            "#include \"optim/optimizer.h\"\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("sibling"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, DownwardIncludePasses) {
  WriteFile(root_ / "src" / "mtl" / "fine.cc",
            "#include \"core/aggregator.h\"\n"
            "#include \"base/check.h\"\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsBareAssert) {
  WriteFile(root_ / "src" / "base" / "bad.cc",
            "#include <cassert>\n"
            "void F(int x) { assert(x > 0); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[bare-assert]"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, StaticAssertPasses) {
  WriteFile(root_ / "src" / "base" / "fine.cc",
            "static_assert(sizeof(int) == 4, \"ILP32/LP64 only\");\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsUndocumentedEnvKnob) {
  WriteFile(root_ / "src" / "base" / "bad.cc",
            "#include \"base/env.h\"\n"
            "int K() { return mocograd::GetEnvInt(\"MOCOGRAD_SECRET_KNOB\", "
            "0, 0, 1); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[env-registry]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("MOCOGRAD_SECRET_KNOB"), std::string::npos)
      << r.output;
}

TEST_F(MgAnalyzeTest, DocumentedEnvKnobPasses) {
  WriteFile(root_ / "src" / "base" / "fine.cc",
            "#include \"base/env.h\"\n"
            "int K() { return mocograd::GetEnvInt(\"MOCOGRAD_DOCUMENTED_KNOB"
            "\", 0, 0, 1); }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, AllowAnnotationOnLineSuppresses) {
  WriteFile(root_ / "src" / "core" / "fine.cc",
            "int Noise() { return rand(); }  "
            "// mg_analyze:allow(nondeterminism) -- fixture\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, AllowAnnotationOnPrecedingLineSuppresses) {
  WriteFile(root_ / "src" / "core" / "fine.cc",
            "// lookup-only table, never iterated:\n"
            "// mg_analyze:allow(nondeterminism)\n"
            "std::unordered_map<int, int> g_table;\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, AllowForWrongRuleDoesNotSuppress) {
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "int Noise() { return rand(); }  // mg_analyze:allow(layering)\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[nondeterminism]"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, LegacyMgLintAllowNoLongerSuppresses) {
  // The mg_lint spelling is dead: stale annotations must not silence the
  // successor (the repo migrated them all in the same change).
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "int Noise() { return rand(); }  "
            "// mg_lint:allow(nondeterminism)\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[nondeterminism]"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, CommentsAndStringsDoNotTrip) {
  WriteFile(root_ / "src" / "base" / "fine.cc",
            "// rand() and time() are banned; std::unordered_map too.\n"
            "/* #pragma omp would be flagged in code */\n"
            "const char* kDoc = \"never call rand() or malloc()\";\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Transitive hot-path allocation (the call-graph rule).
// ---------------------------------------------------------------------------

TEST_F(MgAnalyzeTest, FlagsAllocReachableThroughCallChain) {
  WriteFile(root_ / "src" / "tensor" / "bad.cc",
            "void Helper(float* v, int n);\n"
            "void Middle(float* v, int n) { Helper(v, n); }\n"
            "// MG_HOT_PATH\n"
            "void Step(float* v, int n) { Middle(v, n); }\n"
            "// MG_HOT_PATH_END\n"
            "void Helper(float* v, int n) {\n"
            "  float* tmp = new float[n];\n"
            "  (void)v; (void)tmp;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The alloc site is flagged with the full chain back to the hot region.
  EXPECT_NE(r.output.find("bad.cc:7: [hot-path-alloc]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("Step -> Middle -> Helper"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bad.cc:4"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsSizedVectorConstructionReachableFromHotPath) {
  // `std::vector<T> x(n)` allocates without any growth call; a hot caller
  // reaching it is a finding, as is a sized temporary.
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "#include <vector>\n"
            "double Blocks(const float* v, int n) {\n"
            "  std::vector<double> partials(n);\n"
            "  (void)v;\n"
            "  return partials[0];\n"
            "}\n"
            "int Temp(int n) { return std::vector<int>(n, 1)[0]; }\n"
            "// MG_HOT_PATH\n"
            "double Step(const float* v, int n) {\n"
            "  return Blocks(v, n) + Temp(n);\n"
            "}\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("bad.cc:3: [hot-path-alloc] sized vector "
                          "construction"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bad.cc:7: [hot-path-alloc] sized vector "
                          "construction"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("Step -> Blocks"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, VectorSignaturesAndEmptyDeclarationsAreNotConstruction) {
  // A function returning a vector, reference parameters, an empty
  // declaration and a lambda returning a vector allocate nothing.
  WriteFile(root_ / "src" / "core" / "fine.cc",
            "#include <vector>\n"
            "using Buf = std::vector<float>;\n"
            "std::vector<float> Rows(const std::vector<float>& src, int n) {\n"
            "  std::vector<float> out;\n"
            "  auto f = [&]() -> std::vector<float> {\n"
            "    return src;\n"
            "  };\n"
            "  (void)n; (void)f;\n"
            "  return out;\n"
            "}\n"
            "// MG_HOT_PATH\n"
            "void Step(const Buf& v) { Rows(v, 1); }\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, FollowsCallsAcrossFiles) {
  WriteFile(root_ / "src" / "tensor" / "hot.cc",
            "#include \"tensor/helper.h\"\n"
            "// MG_HOT_PATH\n"
            "void Kernel(float* v, int n) { GrowBuffer(v, n); }\n"
            "// MG_HOT_PATH_END\n");
  WriteFile(root_ / "src" / "tensor" / "helper.cc",
            "#include <vector>\n"
            "std::vector<float> g_buf;\n"
            "void GrowBuffer(float* v, int n) {\n"
            "  g_buf.resize(n);\n"
            "  (void)v;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("helper.cc:4: [hot-path-alloc]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hot.cc:3"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, ColdPathRegionExemptsCalleeAllocs) {
  // The arena-growth shape: a hot function reaches an explicitly cold
  // capacity excursion. The MG_COLD_PATH bracket is rule semantics, not an
  // escape — no mg_analyze:allow needed.
  WriteFile(root_ / "src" / "tensor" / "fine.cc",
            "// MG_COLD_PATH: capacity growth, runs until warm\n"
            "void Grow(float** v, int n) { *v = new float[n]; }\n"
            "// MG_COLD_PATH_END\n"
            "// MG_HOT_PATH\n"
            "float* Alloc(float** v, int n) {\n"
            "  Grow(v, n);\n"
            "  return *v;\n"
            "}\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, ColdCallSiteStopsTraversal) {
  // A cold line *inside* a hot region: the call made there is not followed.
  WriteFile(root_ / "src" / "tensor" / "fine.cc",
            "void Setup(float** v, int n) { *v = new float[n]; }\n"
            "// MG_HOT_PATH\n"
            "void Step(float** v, int n) {\n"
            "  // MG_COLD_PATH: one-time init\n"
            "  Setup(v, n);\n"
            "  // MG_COLD_PATH_END\n"
            "  (void)v;\n"
            "}\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, AmbiguousCalleeNameIsNotFollowed) {
  // Two files define Process(); a hot call in a third file is dropped
  // rather than fanned out to both (the rule errs toward silence).
  WriteFile(root_ / "src" / "tensor" / "a.cc",
            "void Process(float* v, int n) { float* t = new float[n]; "
            "(void)v; (void)t; }\n");
  WriteFile(root_ / "src" / "tensor" / "b.cc",
            "void Process(int* v, int n) { (void)v; (void)n; }\n");
  WriteFile(root_ / "src" / "tensor" / "hot.cc",
            "// MG_HOT_PATH\n"
            "void Step(float* v, int n) { Process(v, n); }\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, SameFileDefinitionWinsOverAmbiguity) {
  // When the hot caller's own file defines the name, that definition is
  // followed even though another file defines it too.
  WriteFile(root_ / "src" / "tensor" / "other.cc",
            "void Process(int* v, int n) { (void)v; (void)n; }\n");
  WriteFile(root_ / "src" / "tensor" / "hot.cc",
            "void Process(float* v, int n) { float* t = new float[n]; "
            "(void)v; (void)t; }\n"
            "// MG_HOT_PATH\n"
            "void Step(float* v, int n) { Process(v, n); }\n"
            "// MG_HOT_PATH_END\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("hot.cc:1: [hot-path-alloc]"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// Concurrent per-task forward: no writes to shared mutable statics.
// ---------------------------------------------------------------------------

// A model whose Forward hands its per-task body to ForwardTasksConcurrently,
// reaching nn::Layer::Forward through a member call (`layer_->Forward`).
void WriteConcurrentModel(const fs::path& root) {
  WriteFile(root / "src" / "mtl" / "model.cc",
            "#include \"nn/layer.h\"\n"
            "std::vector<Variable> Model::Forward(\n"
            "    const std::vector<Variable>& in) {\n"
            "  return ForwardTasksConcurrently(2, [&](int k) {\n"
            "    return layer_->Forward(in[k]);\n"
            "  });\n"
            "}\n");
}

TEST_F(MgAnalyzeTest, FlagsStaticWriteReachableFromConcurrentForward) {
  WriteConcurrentModel(root_);
  WriteFile(root_ / "src" / "nn" / "layer.cc",
            "namespace {\n"
            "int g_calls = 0;\n"
            "int NextId() {\n"
            "  static int next = 0;\n"
            "  return next++;\n"
            "}\n"
            "}  // namespace\n"
            "Variable Layer::Forward(const Variable& x) {\n"
            "  g_calls += 1;\n"
            "  (void)NextId();\n"
            "  return x;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("layer.cc:9: [task-parallel-static] write to "
                          "namespace-scope mutable 'g_calls'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("layer.cc:5: [task-parallel-static] write to "
                          "function-static mutable 'next'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/mtl/model.cc:4 via Forward -> Forward"),
            std::string::npos)
      << r.output;
}

TEST_F(MgAnalyzeTest, ConstPerThreadAndUnreachableStaticsPass) {
  WriteConcurrentModel(root_);
  WriteFile(root_ / "src" / "nn" / "layer.cc",
            "namespace {\n"
            "const int kLimit = 4;\n"
            "thread_local int t_calls = 0;\n"
            "std::atomic<int> a_calls{0};\n"
            "int g_total = 0;\n"
            "struct Stats { int g_total = 0; };\n"
            "}  // namespace\n"
            "Variable Layer::Forward(const Variable& x) {\n"
            "  static constexpr int kWidth = 8;\n"
            "  ++t_calls;\n"
            "  a_calls += 1;\n"
            "  Stats s;\n"
            "  s.g_total = kLimit + kWidth + g_total;\n"
            "  if (g_total == 0) return x;\n"
            "  return x;\n"
            "}\n"
            "void ResetForTests() { g_total = 0; }\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// ISA tier table completeness + isolation.
// ---------------------------------------------------------------------------

TEST_F(MgAnalyzeTest, CompleteTierTablePasses) {
  WriteCompleteKernelTable();
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, DeletedKernelEntryFailsNamingKernelAndTier) {
  WriteCompleteKernelTable();
  // Drop the dot assignment from the avx2 TU only.
  WriteFile(root_ / "src" / "base" / "vec_kernels_tier_avx2.cc",
            "#include \"base/vec_kernels.h\"\n"
            "static VecKernels Make() {\n"
            "  VecKernels k;\n"
            "  k.axpy = nullptr;\n"
            "  return k;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[tier-table]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'dot'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'avx2'"), std::string::npos) << r.output;
  // The intact kernel and tiers stay quiet.
  EXPECT_EQ(r.output.find("'axpy'"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("'sse'"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, MissingTierTuFails) {
  WriteCompleteKernelTable();
  fs::remove(root_ / "src" / "base" / "vec_kernels_tier_neon.cc");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[tier-table]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("neon"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, AssignmentViaIncludedImplHeaderCounts) {
  // The real tree's shape: tier TUs include a shared impl header that does
  // the field assignments; the rule searches the TU's transitive includes.
  WriteFile(root_ / "src" / "base" / "vec_kernels.h",
            "struct VecKernels {\n"
            "  void (*axpy)(int n, float a, const float* x, float* y);\n"
            "};\n");
  WriteFile(root_ / "src" / "base" / "vec_kernels_impl.h",
            "#include \"base/vec_kernels.h\"\n"
            "inline VecKernels MakeVecKernels() {\n"
            "  VecKernels k;\n"
            "  k.axpy = nullptr;\n"
            "  return k;\n"
            "}\n");
  for (const char* tier : {"scalar", "sse", "avx2", "avx512", "neon"}) {
    WriteFile(root_ / "src" / "base" /
                  ("vec_kernels_tier_" + std::string(tier) + ".cc"),
              "#include \"base/vec_kernels_impl.h\"\n");
  }
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, ForeignIntrinsicInTierTuFails) {
  WriteCompleteKernelTable();
  WriteFile(root_ / "src" / "base" / "vec_kernels_tier_sse.cc",
            "#include \"base/vec_kernels.h\"\n"
            "static VecKernels Make() {\n"
            "  VecKernels k;\n"
            "  k.axpy = nullptr;\n"
            "  k.dot = nullptr;\n"
            "  __m256 v = _mm256_setzero_ps();\n"
            "  (void)v;\n"
            "  return k;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[tier-isolation]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("vec_kernels_tier_sse.cc:6"), std::string::npos)
      << r.output;
}

TEST_F(MgAnalyzeTest, CrossTierBackendReferenceFails) {
  WriteCompleteKernelTable();
  WriteFile(root_ / "src" / "base" / "vec_kernels_tier_scalar.cc",
            "#include \"base/vec_kernels.h\"\n"
            "struct Avx2Backend;\n"
            "static VecKernels Make() {\n"
            "  VecKernels k;\n"
            "  k.axpy = nullptr;\n"
            "  k.dot = nullptr;\n"
            "  return k;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[tier-isolation]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Avx2Backend"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// New determinism rules.
// ---------------------------------------------------------------------------

TEST_F(MgAnalyzeTest, FlagsUnorderedIterationFeedingFpAccumulation) {
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "#include <unordered_map>\n"
            "// mg_analyze:allow(nondeterminism)\n"
            "std::unordered_map<int, float> g_table;\n"
            "float Sum() {\n"
            "  float s = 0.0f;\n"
            "  // mg_analyze:allow(nondeterminism)\n"
            "  for (const auto& kv : g_table) {\n"
            "    s += kv.second;\n"
            "  }\n"
            "  return s;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The container-use allow covers nondeterminism but NOT the accumulation
  // rule — hash-order FP reduction needs its own (and should be rewritten).
  EXPECT_NE(r.output.find("bad.cc:7: [unordered-fp-accum]"), std::string::npos)
      << r.output;
}

TEST_F(MgAnalyzeTest, LookupOnlyUnorderedLoopWithoutAccumulationPasses) {
  WriteFile(root_ / "src" / "core" / "fine.cc",
            "#include <unordered_map>\n"
            "// mg_analyze:allow(nondeterminism)\n"
            "std::unordered_map<int, float> g_table;\n"
            "int Count() {\n"
            "  int n = 0;\n"
            "  // order-insensitive count -- mg_analyze:allow(nondeterminism)\n"
            "  for (const auto& kv : g_table) {\n"
            "    if (kv.second > 0.0f) ++n;\n"
            "  }\n"
            "  return n;\n"
            "}\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, FlagsAtomicFloat) {
  WriteFile(root_ / "src" / "core" / "bad.cc",
            "#include <atomic>\n"
            "std::atomic<float> g_sum{0.0f};\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("bad.cc:2: [atomic-fp]"), std::string::npos)
      << r.output;
}

TEST_F(MgAnalyzeTest, AtomicIntegerPasses) {
  WriteFile(root_ / "src" / "core" / "fine.cc",
            "#include <atomic>\n"
            "#include <cstdint>\n"
            "std::atomic<int64_t> g_count{0};\n"
            "std::atomic<uint64_t> g_bits{0};\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Doc-knob drift.
// ---------------------------------------------------------------------------

TEST_F(MgAnalyzeTest, FlagsDocumentedKnobParsedNowhere) {
  WriteFile(root_ / "docs" / "KNOBS.md",
            "| Knob | Meaning |\n"
            "| --- | --- |\n"
            "| `MOCOGRAD_GHOST_KNOB=1` | a knob nothing parses |\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[doc-knob-drift]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("MOCOGRAD_GHOST_KNOB"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("KNOBS.md:3"), std::string::npos) << r.output;
}

TEST_F(MgAnalyzeTest, ParsedKnobInDocsTablePasses) {
  WriteFile(root_ / "src" / "base" / "knob.cc",
            "#include \"base/env.h\"\n"
            "int K() { return mocograd::GetEnvInt(\"MOCOGRAD_DOCUMENTED_KNOB"
            "\", 0, 0, 1); }\n");
  WriteFile(root_ / "docs" / "KNOBS.md",
            "| Knob | Meaning |\n"
            "| --- | --- |\n"
            "| `MOCOGRAD_DOCUMENTED_KNOB=1` | parsed in base/knob.cc |\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, CMakeOptionInDocsTablePasses) {
  WriteFile(root_ / "CMakeLists.txt",
            "option(MOCOGRAD_BUILD_EXTRAS \"build the extras\" OFF)\n");
  WriteFile(root_ / "docs" / "BUILD.md",
            "| Option | Meaning |\n"
            "| --- | --- |\n"
            "| `MOCOGRAD_BUILD_EXTRAS=ON` | a CMake option, not an env "
            "knob |\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MgAnalyzeTest, KnobInDocsProseIsNotChecked) {
  // Only table rows are cross-checked: prose legitimately discusses
  // hypothetical or historical knobs.
  WriteFile(root_ / "docs" / "NOTES.md",
            "Long ago MOCOGRAD_ANCIENT_KNOB controlled this; it no longer "
            "exists.\n");
  const AnalyzeResult r = RunAnalyze(root_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
