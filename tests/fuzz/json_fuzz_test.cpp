/// Deterministic fuzzing of the util/json.hpp parser and the layers that
/// feed on it (campaign-result documents, scenario specs, the hovald
/// service protocol): seeded mutations of the checked-in scenario corpus
/// (plus purely random documents) must never crash a parser, and anything
/// one *accepts* must be internally consistent — dump() must re-parse to
/// an equal document (no accept-then-misparse).  Runs under the regular
/// ctest invocation, so the ASan/UBSan CI jobs exercise exactly these
/// inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/wire.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "service/protocol.hpp"
#include "sim/result_json.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

std::vector<std::string> corpus_documents() {
  std::vector<std::string> documents;
  const std::filesystem::path corpus =
      std::filesystem::path(HOVAL_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  // directory_iterator order is unspecified; sort for a deterministic
  // mutation schedule.
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    documents.push_back(text.str());
  }
  return documents;
}

/// Parse must either throw JsonError or produce a document whose dump
/// re-parses to an equal value.  Returns true when the input was accepted.
bool parse_never_misbehaves(const std::string& text) {
  Json document;
  try {
    document = Json::parse(text);
  } catch (const JsonError&) {
    return false;  // rejection is always fine
  }
  // Accepted: the document must survive its own serialisation, compact
  // and pretty-printed.
  const Json compact = Json::parse(document.dump());
  EXPECT_TRUE(compact == document) << "compact dump re-parsed differently";
  const Json pretty = Json::parse(document.dump(2));
  EXPECT_TRUE(pretty == document) << "pretty dump re-parsed differently";
  return true;
}

std::string mutate(const std::string& base, Rng& rng) {
  std::string text = base;
  const int edits = 1 + static_cast<int>(rng.below(8));
  for (int edit = 0; edit < edits && !text.empty(); ++edit) {
    const auto position = static_cast<std::size_t>(rng.below(text.size()));
    switch (rng.below(5)) {
      case 0:  // flip a bit
        text[position] = static_cast<char>(
            static_cast<unsigned char>(text[position]) ^ (1u << rng.below(8)));
        break;
      case 1:  // overwrite with a random byte
        text[position] = static_cast<char>(rng.below(256));
        break;
      case 2:  // delete a byte
        text.erase(position, 1);
        break;
      case 3:  // insert a structural character (most likely to confuse)
        text.insert(position, 1, "{}[],:\"\\0123456789eE+-."[rng.below(23)]);
        break;
      case 4:  // truncate
        text.resize(position);
        break;
    }
  }
  return text;
}

TEST(JsonFuzz, MutatedScenarioCorpusNeverCrashesOrMisparses) {
  const std::vector<std::string> corpus = corpus_documents();
  ASSERT_GE(corpus.size(), 5u) << "scenario corpus missing?";
  Rng rng(0xF0021);
  long long accepted = 0;
  for (int round = 0; round < 400; ++round)
    for (const std::string& document : corpus)
      if (parse_never_misbehaves(mutate(document, rng))) ++accepted;
  // Single-byte-ish mutations of valid JSON frequently stay valid (e.g. a
  // digit flip inside a number); if nothing was accepted the mutator is
  // broken and the round-trip arm above never ran.
  EXPECT_GT(accepted, 0);
}

TEST(JsonFuzz, RandomBytesNeverCrash) {
  Rng rng(0xF0022);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text(rng.below(64), '\0');
    for (char& c : text) c = static_cast<char>(rng.below(256));
    parse_never_misbehaves(text);
  }
}

TEST(JsonFuzz, StructuredGarbageNeverCrashes) {
  // Sequences over JSON's own alphabet reach deeper parser states than
  // uniformly random bytes.
  static constexpr char kAlphabet[] = "{}[],:\"tfn\\ue0123456789 .+-x";
  Rng rng(0xF0023);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text(rng.below(48), '\0');
    for (char& c : text) c = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    parse_never_misbehaves(text);
  }
}

TEST(JsonFuzz, MutatedResultDocumentsNeverCrashTheResultParser) {
  // Same discipline one layer over on the dispatch wire: mutations of real
  // campaign-result documents must either throw JsonError or parse into a
  // result that re-serialises to an accepted, equal document.
  std::vector<std::string> seeds;
  for (const std::uint64_t seed : {1ull, 77ull}) {
    ScenarioSpec spec;
    spec.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
    spec.adversaries = {component(seed == 1 ? "corrupt" : "split",
                                  {{"alpha", seed == 1 ? 1 : 4}})};
    spec.values = component("split", {{"lo", 0}, {"hi", 1}});
    spec.predicates = {component("p-alpha")};
    spec.campaign.runs = 16;
    spec.campaign.rounds = 30;
    spec.campaign.seed = seed;
    seeds.push_back(campaign_result_to_json(run_scenario(spec)).dump(2));
  }
  Rng rng(0xF0025);
  long long accepted = 0;
  for (int round = 0; round < 300; ++round) {
    for (const std::string& document : seeds) {
      const std::string text = mutate(document, rng);
      try {
        const CampaignResult result =
            campaign_result_from_json(Json::parse(text));
        const Json redumped = campaign_result_to_json(result);
        EXPECT_TRUE(campaign_result_to_json(campaign_result_from_json(
                        redumped)) == redumped)
            << "accepted result document did not round-trip";
        ++accepted;
      } catch (const JsonError&) {
        // rejection with a diagnostic is the expected common case
      }
    }
  }
  // Digit flips inside counts routinely survive validation; zero accepts
  // would mean the round-trip arm above never executed.
  EXPECT_GT(accepted, 0);
}

/// An accepted client frame must re-encode from its parsed fields into a
/// frame that parses to the same message — the service-layer version of
/// no-accept-then-misparse.  (A mutated hello version cannot be
/// re-encoded — encode_hello() always speaks kProtocolVersion — so hello
/// only checks that parsing was total.)
void expect_client_frame_roundtrips(const service::ClientMessage& m) {
  using service::ClientMessage;
  std::string reencoded;
  switch (m.type) {
    case ClientMessage::Type::kHello:
      return;
    case ClientMessage::Type::kSubmit:
      reencoded = service::encode_submit(m.id, m.sweep, m.spec, m.progress);
      break;
    case ClientMessage::Type::kCancel:
      reencoded = service::encode_cancel(m.id);
      break;
  }
  const ClientMessage again = service::parse_client_message(reencoded);
  EXPECT_EQ(again.type, m.type);
  EXPECT_EQ(again.id, m.id);
  EXPECT_EQ(again.sweep, m.sweep);
  EXPECT_EQ(again.progress, m.progress);
  EXPECT_TRUE(again.spec == m.spec) << "spec diverged through re-encoding";
}

void expect_server_frame_roundtrips(const service::ServerMessage& m) {
  using service::ServerMessage;
  std::string reencoded;
  switch (m.type) {
    case ServerMessage::Type::kHello:
      return;
    case ServerMessage::Type::kProgress:
      reencoded = service::encode_progress(m.id, m.completed, m.total);
      break;
    case ServerMessage::Type::kResult:
      reencoded = service::encode_result(m.id, m.cache_hit, m.result);
      break;
    case ServerMessage::Type::kError:
      reencoded = service::encode_error(m.id, m.what, m.retry_after_ms);
      break;
  }
  const ServerMessage again = service::parse_server_message(reencoded);
  EXPECT_EQ(again.type, m.type);
  EXPECT_EQ(again.id, m.id);
  EXPECT_EQ(again.completed, m.completed);
  EXPECT_EQ(again.total, m.total);
  EXPECT_EQ(again.cache_hit, m.cache_hit);
  EXPECT_EQ(again.what, m.what);
  EXPECT_EQ(again.retry_after_ms, m.retry_after_ms);
  EXPECT_TRUE(again.result == m.result) << "result diverged";
}

TEST(JsonFuzz, MutatedServiceFramesNeverCrashOrMisparse) {
  // Seed corpus: one valid frame of every protocol message type, with a
  // real scenario document and a real sweep document as submit payloads.
  const std::vector<std::string> scenario_corpus = corpus_documents();
  ASSERT_FALSE(scenario_corpus.empty());
  std::vector<std::string> client_frames = {
      service::encode_hello(),
      service::encode_cancel(3),
  };
  for (const std::string& document : scenario_corpus)
    client_frames.push_back(service::encode_submit(
        1, document.find("\"axes\"") != std::string::npos,
        Json::parse(document), true));
  const std::vector<std::string> server_frames = {
      service::encode_server_hello(),
      service::encode_progress(2, 640, 2000),
      service::encode_result(4, true,
                             Json::parse(R"({"runs": 5, "violations": []})")),
      service::encode_error(-1, "malformed frame"),
      service::encode_error(7, "busy: admission queue is full, retry later",
                            250),
  };

  Rng rng(0xF0026);
  long long accepted = 0;
  for (int round = 0; round < 200; ++round) {
    for (const std::string& frame : client_frames) {
      const std::string text = mutate(frame, rng);
      try {
        expect_client_frame_roundtrips(service::parse_client_message(text));
        ++accepted;
      } catch (const service::ServiceError&) {
        // the only acceptable failure mode — JsonError must not leak
      }
    }
    for (const std::string& frame : server_frames) {
      const std::string text = mutate(frame, rng);
      try {
        expect_server_frame_roundtrips(service::parse_server_message(text));
        ++accepted;
      } catch (const service::ServiceError&) {
      }
    }
  }
  // Digit flips inside ids and counters routinely survive validation;
  // zero accepts would mean the round-trip arms never executed.
  EXPECT_GT(accepted, 0);
}

TEST(JsonFuzz, MutatedWireFramesNeverDeliverAlteredPayloads) {
  // The chaos-layer contract one level below the JSON: bit-flipped,
  // truncated, and spliced *frames* fed to the FrameDecoder must never
  // deliver a payload that differs from one of the originals.  The CRC in
  // the frame header is what turns silent value faults into detected link
  // faults (rejection or truncation), mirroring the paper's reduction of
  // corrupted communication to a tolerable fault class.
  const std::vector<std::string> payloads = {
      "",
      "x",
      std::string("binary\0payload", 14),
      service::encode_hello(),
      service::encode_error(7, "busy: admission queue is full, retry later",
                            250),
      service::encode_error(3, "worker went away"),
      std::string(5000, 'q'),
  };
  std::vector<std::string> frames;
  for (const std::string& payload : payloads)
    frames.push_back(dispatch::encode_frame(payload));

  const auto is_original = [&](const std::string& delivered) {
    for (const std::string& payload : payloads)
      if (delivered == payload) return true;
    return false;
  };

  Rng rng(0xF0027);
  long long delivered_total = 0, rejected_total = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Splice 1-3 frames, then mutate the byte stream.
    std::string stream;
    const int spliced = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < spliced; ++i)
      stream += frames[rng.below(frames.size())];
    const std::string text = mutate(stream, rng);

    dispatch::FrameDecoder decoder;
    std::size_t offset = 0;
    try {
      while (offset < text.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            text.size() - offset, 1 + rng.below(128));
        decoder.feed(text.data() + offset, chunk);
        offset += chunk;
        while (const auto frame = decoder.next()) {
          EXPECT_TRUE(is_original(*frame))
              << "trial " << trial << " delivered altered payload";
          ++delivered_total;
        }
      }
    } catch (const dispatch::WireError&) {
      ++rejected_total;  // detected corruption ends the stream — correct
    }
  }
  // Mutations that only touch one frame leave the others deliverable, and
  // corrupting mutations must be getting caught; zero on either side means
  // the harness is not exercising the decoder.
  EXPECT_GT(delivered_total, 0);
  EXPECT_GT(rejected_total, 0);
}

TEST(JsonFuzz, MutatedCorpusThroughScenarioLayerNeverCrashes) {
  // One layer up: whatever still parses as JSON is fed to the scenario
  // validator, which must either throw ScenarioError or yield a spec that
  // round-trips losslessly.
  const std::vector<std::string> corpus = corpus_documents();
  Rng rng(0xF0024);
  for (int round = 0; round < 60; ++round) {
    for (const std::string& document : corpus) {
      const std::string text = mutate(document, rng);
      try {
        const ScenarioSpec spec = ScenarioSpec::from_json_text(text);
        const ScenarioSpec reparsed =
            ScenarioSpec::from_json_text(spec.to_json_text());
        EXPECT_TRUE(reparsed == spec) << "scenario round trip diverged";
      } catch (const ScenarioError&) {
        // rejection with a diagnostic is the expected common case
      }
    }
  }
}

}  // namespace
}  // namespace hoval
