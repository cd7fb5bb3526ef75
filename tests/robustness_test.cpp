// Robustness: malformed or adversarial inputs must produce typed errors
// (or clean skips), never crashes or silent corruption — the parsers face
// user-supplied files and hand-edited configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <typeinfo>

#include "core/checkpoint.hpp"
#include "emulation/config_parse.hpp"
#include "emulation/incident.hpp"
#include "emulation/network.hpp"
#include "experiment/campaign.hpp"
#include "experiment/journal.hpp"
#include "measure/textfsm.hpp"
#include "nidb/value.hpp"
#include "templates/template.hpp"
#include "topology/gml.hpp"
#include "topology/graphml.hpp"
#include "topology/rocketfuel.hpp"

namespace {

using namespace autonet;

std::vector<std::string> garbage_corpus() {
  std::vector<std::string> corpus{
      "",
      " ",
      "\n\n\n",
      "\x00\x01\x02",
      "<<<<>>>>",
      "graph [ node [ id",
      "<graphml><graph>",
      "<graphml><graph edgedefault=\"undirected\"><node id=\"a\"></graph></graphml>",
      "router bgp abc\n neighbor x remote-as y\n",
      "${unterminated",
      "% for x in:\n% endfor\n",
      "]]]}}}",
      "{\"k\":1,",
      std::string(10000, 'A'),
      std::string("\xff\xfe\xfd"),
  };
  // Deterministic pseudo-random byte soup.
  std::mt19937_64 rng(1234);
  for (int i = 0; i < 10; ++i) {
    std::string s;
    std::uniform_int_distribution<int> len(1, 500);
    std::uniform_int_distribution<int> byte(0, 255);
    int count = len(rng);
    for (int j = 0; j < count; ++j) s += static_cast<char>(byte(rng));
    corpus.push_back(std::move(s));
  }
  return corpus;
}

TEST(Robustness, GraphmlNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_graphml(text);
      (void)g.node_count();
    } catch (const topology::ParseError&) {
    } catch (const std::exception&) {
      // Any std exception is acceptable; crashes are not.
    }
  }
  SUCCEED();
}

TEST(Robustness, GmlNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_gml(text);
      (void)g.node_count();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, RocketfuelNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_rocketfuel(text);
      (void)g.node_count();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, GraphmlAlwaysThrowsTypedParseError) {
  // Stronger than "no crash": every rejection is the typed ParseError,
  // never a raw std::runtime_error / std::out_of_range escaping from the
  // XML layer or std::stoi.
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_graphml(text);
      (void)g.node_count();
    } catch (const topology::ParseError&) {
      // The contract.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception for input " << testing::PrintToString(text)
                    << ": " << e.what();
    }
  }
}

TEST(Robustness, GraphmlEntityReferenceEdgeCases) {
  auto doc = [](const std::string& label) {
    return "<graphml><key id=\"d0\" for=\"node\" attr.name=\"label\" "
           "attr.type=\"string\"/><graph id=\"g\" edgedefault=\"undirected\">"
           "<node id=\"a\"><data key=\"d0\">" +
           label + "</data></node></graph></graphml>";
  };
  // "&#;" used to read one byte past the entity text; huge values used
  // to escape as std::out_of_range from std::stoi. Both are typed now.
  EXPECT_THROW((void)topology::load_graphml(doc("&#;")), topology::ParseError);
  EXPECT_THROW((void)topology::load_graphml(doc("&#x;")), topology::ParseError);
  EXPECT_THROW((void)topology::load_graphml(doc("&#99999999999999999999;")),
               topology::ParseError);
  EXPECT_THROW((void)topology::load_graphml(doc("&#xZZ;")), topology::ParseError);

  // Valid references still decode (including UTF-8 beyond one byte).
  auto g = topology::load_graphml(doc("&#65;&#x42;&#20013;"));
  ASSERT_EQ(g.node_count(), 1u);
  const auto* label = g.node_attr(g.find_node("AB\xE4\xB8\xAD"), "label").as_string();
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(*label, "AB\xE4\xB8\xAD");
}

TEST(Robustness, GraphmlErrorsCarryLineContext) {
  const std::string text =
      "<graphml>\n"
      "  <graph id=\"g\" edgedefault=\"undirected\">\n"
      "    <node id=\"a\"></nod>\n"
      "  </graph>\n"
      "</graphml>\n";
  try {
    (void)topology::load_graphml(text);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Robustness, GraphmlFileErrorsCarryPath) {
  const auto path =
      (std::filesystem::temp_directory_path() / "autonet-bad.graphml").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "<graphml>\n<graph>\n";
  }
  try {
    (void)topology::load_graphml_file(path);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(Robustness, RocketfuelMalformedLineIsTypedError) {
  // Comments and blank lines are fine; a non-comment line without a
  // leading router uid is a typed error naming its line (it used to be
  // silently dropped).
  const std::string good =
      "# comment\n"
      "1 @loc bb -> <2> =r1 rn\n"
      "\n"
      "2 @loc -> <1> =r2 rn\n";
  EXPECT_EQ(topology::load_rocketfuel(good).node_count(), 2u);

  const std::string bad =
      "1 @loc bb -> <2> =r1 rn\n"
      "oops not a router\n";
  try {
    (void)topology::load_rocketfuel(bad);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Robustness, RocketfuelFileErrorsCarryPath) {
  const auto path =
      (std::filesystem::temp_directory_path() / "autonet-bad.cch").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "1 @loc -> <2> =r1 rn\nbogus\n";
  }
  try {
    (void)topology::load_rocketfuel_file(path);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(Robustness, GmlMalformedInputIsTypedError) {
  // Each of these used to escape as an untyped std::invalid_argument,
  // std::out_of_range, or std::bad_variant_access (found by
  // `autonet fuzz --oracle loader-robustness`); corrupted GML may only
  // surface as ParseError.
  const char* bad[] = {
      "graph [ node [ id - ] ]",                 // bare sign, stoll
      "graph [ node [ id 99999999999999999999999999 ] ]",  // overflow
      "graph [ node [ id 1 w 1e99999 ] ]",       // stod overflow
      "graph [ node 5 ]",                        // node value not a list
      "graph [ edge \"x\" ]",                    // edge value not a list
      "graph [ node [ id 1 ] edge [ source \"a\" target 1 ] ]",
      "graph [ node [ id 1 ] edge [ source 1 target 9 ] ]",
      "graph [ node [ id 1 ] node [ ] ]",        // node without id
      "graph [ \"unterminated",
      "nothing here",
  };
  for (const char* text : bad) {
    try {
      (void)topology::load_gml(text);
      // Some corruptions still parse (GML is permissive); that is fine.
    } catch (const topology::ParseError&) {
      // typed: fine
    } catch (const std::exception& e) {
      FAIL() << "untyped " << typeid(e).name() << " for: " << text << " — "
             << e.what();
    }
  }
  EXPECT_THROW((void)topology::load_gml("graph [ node [ id - ] ]"),
               topology::ParseError);
}

TEST(Robustness, GmlFileErrorsCarryPath) {
  const auto path =
      (std::filesystem::temp_directory_path() / "autonet-bad.gml").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "graph [ node [ id - ] ]";
  }
  try {
    (void)topology::load_gml_file(path);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Robustness, JsonNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto v = nidb::parse_json(text);
      (void)v.to_json();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, TemplateNeverCrashes) {
  templates::Context ctx;
  ctx.set("node", nidb::Value(nidb::Object{{"x", nidb::Value(1)}}));
  for (const auto& text : garbage_corpus()) {
    try {
      auto out = templates::render(text, ctx);
      (void)out.size();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, ConfigParsersNeverCrash) {
  for (const auto& text : garbage_corpus()) {
    try {
      (void)emulation::parse_ios_config(text);
    } catch (const std::exception&) {
    }
    try {
      (void)emulation::parse_junos_config(text);
    } catch (const std::exception&) {
    }
    try {
      (void)emulation::parse_cbgp_script(text);
    } catch (const std::exception&) {
    }
    try {
      render::ConfigTree tree;
      tree.put("dev/.startup", text);
      tree.put("dev/etc/quagga/ospfd.conf", text);
      tree.put("dev/etc/quagga/bgpd.conf", text);
      (void)emulation::parse_quagga_device(tree, "dev", "dev");
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, CbgpNetworkBootNeverCrashes) {
  // Beyond parsing: garbage fed all the way into network construction
  // (and, when it survives, convergence) must stay typed exceptions.
  for (const auto& text : garbage_corpus()) {
    try {
      auto net = emulation::EmulatedNetwork::from_cbgp_script(text);
      (void)net.start();
    } catch (const std::exception&) {
    }
  }
  // Near-valid scripts with broken tails exercise the later stages.
  const std::vector<std::string> tails{
      "net add node 1.1.1.1\nnet add node", "net add link 1.1.1.1",
      "net add link 1.1.1.1 2.2.2.2 999999999999",
      "bgp add router 1 not-an-ip", "bgp router 1.1.1.1\n  add peer 2"};
  for (const auto& tail : tails) {
    try {
      auto net = emulation::EmulatedNetwork::from_cbgp_script(
          "net add node 1.1.1.1\n" + tail + "\n");
      (void)net.start();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, IncidentScriptNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      (void)emulation::parse_incident_script(text);
    } catch (const emulation::IncidentError&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, TextFsmNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto fsm = measure::TextFsm::parse(text);
      (void)fsm.run("input line\n");
    } catch (const std::exception&) {
    }
    // Garbage as *input* to a valid template must never throw at all.
    EXPECT_NO_THROW(measure::TextFsm::traceroute_template().run(text));
  }
}

TEST(Robustness, DeepTemplateNestingBounded) {
  // 64 nested loops parse and render without stack issues.
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "% for v" + std::to_string(i) + " in xs:\n";
  }
  text += "y\n";
  for (int i = 0; i < 64; ++i) text += "% endfor\n";
  templates::Context ctx;
  ctx.set("xs", nidb::Value(nidb::Array{nidb::Value(1)}));
  EXPECT_EQ(templates::render(text, ctx), "y\n");
}

// The journal reader that campaigns and fuzzing share: a three-record
// campaign journal cut at any byte reads back as a prefix of its records
// (the torn line skipped); with any one byte flipped, every record on a
// line the flip left alone still reads back, in order. The reader never
// throws on what it reads.
TEST(Robustness, CampaignJournalCutOrFlippedReadsBackWhatSurvives) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "autonet_robust_journal";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "journal.jsonl").string();
  {
    // Ids of distinct lengths, so one flipped byte cannot turn one
    // record's id into another's.
    experiment::Journal journal(path);
    journal.claim(experiment::parse_campaign(
        "campaign robust\ntopology figure5\naxis ibgp mesh rr\n"));
    experiment::RunResult done;
    done.id = "ibgp=mesh/rep0";
    done.ok = true;
    done.metrics = {{"convergence.rounds", 3}, {"phase.deploy.ms", 12.5}};
    journal.append(done);
    experiment::CheckpointRecord pointer;
    pointer.run_id = "ibgp=rr/rep0";
    pointer.dir = "ckpt/rr";
    pointer.phases = {"load", "design"};
    journal.append_checkpoint(pointer);
    experiment::RunResult resumed;
    resumed.id = "ibgp=rr/rep0";
    resumed.index = 1;
    resumed.ok = true;
    resumed.axis_values = {{"ibgp", "rr"}};
    journal.append(resumed);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The record lines after the identity line, and where each ends.
  std::vector<std::string> records;
  std::vector<std::size_t> ends;  // offset of each line's '\n'
  for (std::size_t start = text.find('\n') + 1; start < text.size();) {
    const std::size_t end = text.find('\n', start);
    records.push_back(text.substr(start, end - start));
    ends.push_back(end);
    start = end + 1;
  }
  ASSERT_EQ(records.size(), 3u);

  auto read_back = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    std::vector<std::string> out;
    for (const nidb::Value& record : core::Journal(path).records()) {
      out.push_back(record.to_json());
    }
    const experiment::Journal journal(path);
    (void)journal.load();
    (void)journal.load_checkpoints();
    (void)journal.resumed_ids();
    return out;
  };
  ASSERT_EQ(read_back(text), records);
  EXPECT_EQ(experiment::Journal(path).resumed_ids(),
            std::vector<std::string>{"ibgp=rr/rep0"});
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    // A line cut just before its '\n' is whole.
    std::vector<std::string> prefix;
    for (std::size_t i = 0; i < records.size() && ends[i] <= cut; ++i) {
      prefix.push_back(records[i]);
    }
    EXPECT_EQ(read_back(text.substr(0, cut)), prefix) << "cut at " << cut;
  }
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (const int mask : {0x01, 0x80}) {
      std::string flipped = text;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      // A record line is touched when the flip lands in it or on the
      // '\n' that ends the line before it (which joins the two).
      std::vector<std::string> untouched;
      for (std::size_t i = 0; i < records.size(); ++i) {
        const std::size_t begin = ends[i] - records[i].size() - 1;
        if (at < begin || at > ends[i]) untouched.push_back(records[i]);
      }
      const std::vector<std::string> got = read_back(flipped);
      std::vector<std::string> kept;
      for (const std::string& record : got) {
        if (std::find(untouched.begin(), untouched.end(), record) !=
            untouched.end()) {
          kept.push_back(record);
        }
      }
      EXPECT_EQ(kept, untouched) << "flip at " << at;
      EXPECT_LE(got.size(), records.size() + 1) << "flip at " << at;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Robustness, HugeJsonRoundTrip) {
  nidb::Array arr;
  for (int i = 0; i < 20000; ++i) {
    arr.emplace_back(nidb::Object{{"i", nidb::Value(i)}});
  }
  nidb::Value v{std::move(arr)};
  auto text = v.to_json();
  EXPECT_EQ(nidb::parse_json(text), v);
}

}  // namespace
