// Microbenchmarks for clouddb_lint, which runs on every CI lint gate. The
// headline numbers: tokens/s through the front end, functions/s through the
// structural index (classes, functions, lambdas, exports), and the
// end-to-end tree scan (files/s) over a synthetic source tree.
//
// Usage: micro_lint [--json <path>] [google-benchmark flags]

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "frontend.h"
#include "linter.h"

namespace {

using namespace clouddb::lint;

/// One representative function: branches, a counted loop, a switch and a
/// call — the statement mix of real engine code.
std::string SyntheticFunction(const std::string& tag, int i) {
  std::string text = "int ";
  text += tag + std::to_string(i);
  text +=
      "(int a, int b) {\n"
      "  int acc = a;\n"
      "  for (int j = 0; j < b; j = j + 1) {\n"
      "    if (acc > 100) {\n"
      "      acc = acc - b;\n"
      "    } else {\n"
      "      acc = acc + j;\n"
      "    }\n"
      "  }\n";
  if (i > 0) {
    text += "  acc = acc + " + tag + std::to_string(i - 1) + "(acc, b);\n";
  }
  text +=
      "  switch (acc & 3) {\n"
      "    case 0:\n"
      "      return acc;\n"
      "    case 1:\n"
      "      return acc + 1;\n"
      "    default:\n"
      "      return acc + 2;\n"
      "  }\n"
      "}\n\n";
  return text;
}

std::string SyntheticSource(const std::string& tag, int functions) {
  std::string text = "namespace gen {\n\n";
  for (int i = 0; i < functions; ++i) text += SyntheticFunction(tag, i);
  text += "}  // namespace gen\n";
  return text;
}

void BM_Tokenize(benchmark::State& state) {
  std::string text = SyntheticSource("Helper", 100);
  size_t tokens = 0;
  for (auto _ : state) {
    SourceFile sf = ParseSource(text, "src/gen/a.cc");
    tokens = sf.tokens.size();
    benchmark::DoNotOptimize(sf.tokens.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tokens));
  state.SetLabel("tokens/it=" + std::to_string(tokens));
}
BENCHMARK(BM_Tokenize);

void BM_BuildIndex(benchmark::State& state) {
  std::string text = SyntheticSource("Helper", 100);
  SourceFile sf = ParseSource(text, "src/gen/a.cc");
  size_t functions = 0;
  for (auto _ : state) {
    FileIndex idx = BuildIndex(sf);
    functions = idx.functions.size();
    benchmark::DoNotOptimize(idx.functions.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(functions));
}
BENCHMARK(BM_BuildIndex);

/// End-to-end RunLint over a synthetic tree: every rule on kFiles files of
/// kFns functions each.
void BM_TreeScan(benchmark::State& state) {
  namespace fs = std::filesystem;
  const int kFiles = 24;
  const int kFns = 12;
  fs::path root = fs::temp_directory_path() / "clouddb_micro_lint_tree";
  fs::remove_all(root);
  fs::create_directories(root / "src/gen");
  for (int f = 0; f < kFiles; ++f) {
    std::string name = "file";
    name += std::to_string(f);
    name += ".cc";
    std::string tag = "F";
    tag += std::to_string(f);
    tag += "_";
    std::ofstream out(root / "src/gen" / name);
    out << SyntheticSource(tag, kFns);
  }
  Options opts;
  opts.root = root;
  int files_scanned = 0;
  for (auto _ : state) {
    LintResult r = RunLint(opts);
    files_scanned = r.files_scanned;
    benchmark::DoNotOptimize(r.diagnostics.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(files_scanned));
  state.SetLabel("files=" + std::to_string(files_scanned));
  fs::remove_all(root);
}
BENCHMARK(BM_TreeScan);

}  // namespace

// BENCHMARK_MAIN() plus the same `--json <path>` convenience flag as the
// other microbenchmarks.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.emplace_back(argv[i]);
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> benchmark_argv;
  benchmark_argv.reserve(args.size());
  for (std::string& arg : args) benchmark_argv.push_back(arg.data());
  int benchmark_argc = static_cast<int>(benchmark_argv.size());
  benchmark::Initialize(&benchmark_argc, benchmark_argv.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
