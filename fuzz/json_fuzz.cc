// Fuzz harness over the surfaces that read peer bytes: the raw JSON
// document parser (JsonValue::Parse), serialization of whatever parsed,
// the request-schema path (ParseCliRequest), the .vpi instance text that
// every worker job and every daemon {"text": ...} request carries
// (ParseInstanceText), and a worker's unit answer (DecodeAdvisorResult,
// which reaches ParsePartitioningText). The contract under test: arbitrary
// bytes must produce a Status or a value — never a crash, hang, overflow,
// or sanitizer report.
//
// Built two ways (see CMakeLists.txt):
//   * json_fuzz_replay (always): a plain main() that replays every file in
//     the given corpus directories/files — wired into ctest so the corpus
//     doubles as a regression suite on toolchains without libFuzzer.
//   * json_fuzz (VPART_BUILD_FUZZERS=ON, clang): the same body driven by
//     libFuzzer via LLVMFuzzerTestOneInput.

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/json.h"
#include "api/request_json.h"
#include "dist/wire_messages.h"
#include "workload/instance_io.h"

namespace {

/// The fixed instance unit answers are decoded against; the
/// dist_unit_result_tables corpus seed names its transactions and
/// attributes.
const vpart::Instance& UnitInstance() {
  static const vpart::Instance instance = *vpart::ParseInstanceText(
      "instance fuzz\n"
      "table R\nattr R a 4\nattr R b 8\n"
      "txn T1\nquery T1 q1 read 10\nrows q1 R 1\nref q1 R.a\n"
      "txn T2\nquery T2 q2 write 2\nrows q2 R 1\nref q2 R.b\n");
  return instance;
}

void FuzzOne(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  // Raw document grammar: parse, and round-trip anything that parsed.
  vpart::StatusOr<vpart::JsonValue> doc = vpart::JsonValue::Parse(text);
  if (doc.ok()) {
    (void)doc->Serialize(2);
    (void)doc->Serialize(0);
    // Distributed-wire decoding: what a coordinator does with a hostile
    // worker's frame. The answer is tried whole-document too, so corpus
    // entries can target the codec directly.
    (void)vpart::DistMessageType(*doc);
    (void)vpart::DecodeAdvisorResult(UnitInstance(), *doc);
    if (const vpart::JsonValue* advisor = doc->Find("advisor")) {
      (void)vpart::DecodeAdvisorResult(UnitInstance(), *advisor);
    }
  }
  // Schema layer on top: typed readers, unknown-key checks, enum parses.
  (void)vpart::ParseCliRequest(text);
  // Instance text: directives, numbers, and the instance's own validation.
  (void)vpart::ParseInstanceText(text);
}

}  // namespace

#ifdef VPART_FUZZ_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#else  // replay driver

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace {

bool ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.string().c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  FuzzOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_fuzz_replay <corpus-dir-or-file>...\n");
    return 2;
  }
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path path(argv[i]);
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      for (const auto& file : files) {
        if (!ReplayFile(file)) return 1;
        ++replayed;
      }
    } else {
      if (!ReplayFile(path)) return 1;
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "no corpus inputs found\n");
    return 1;
  }
  std::printf("replayed %d corpus inputs without incident\n", replayed);
  return 0;
}

#endif  // VPART_FUZZ_LIBFUZZER
