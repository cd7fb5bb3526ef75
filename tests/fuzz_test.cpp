// The fuzzing subsystem: deterministic scenario generation, the oracle
// registry, the shrinking minimizer, and the journaled campaign driver.
// The acceptance property lives here too: a fixed-seed campaign is
// byte-deterministic (same journal on every invocation) and every
// built-in oracle is green on the committed example topologies.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/session.hpp"
#include "fuzz/shrink.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"
#include "topology/graphml.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --- RNG / seeds -----------------------------------------------------------

TEST(FuzzRng, SplitmixIsDeterministicAndSeedSensitive) {
  fuzz::Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  fuzz::Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= a2.next() != c.next();
  EXPECT_TRUE(differs);
  EXPECT_EQ(fuzz::Rng(7).below(0), 0u);
  for (int i = 0; i < 50; ++i) {
    const auto v = fuzz::Rng(i).range(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(FuzzRng, MixAndFnvAreStableAcrossPlatforms) {
  // Pinned values: the corpus addresses and journal seeds depend on
  // these never changing.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fuzz::mix(1, 2), fuzz::mix(2, 1));
  EXPECT_EQ(fuzz::mix(1, 2), fuzz::mix(1, 2));
}

// --- Scenario generation ---------------------------------------------------

TEST(FuzzScenario, SameSeedProducesByteIdenticalScenario) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL, 12345ULL}) {
    const fuzz::Scenario a = fuzz::generate_scenario(seed, 40);
    const fuzz::Scenario b = fuzz::generate_scenario(seed, 40);
    EXPECT_EQ(fuzz::scenario_to_graphml(a), fuzz::scenario_to_graphml(b));
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_LE(a.graph.node_count(), 40u);
    EXPECT_GE(a.graph.node_count(), 2u);
    // Every generated scenario is a valid pipeline input: connected,
    // every node a router with an ASN.
    EXPECT_TRUE(fuzz::connected_without(a.graph, graph::kInvalidNode));
    for (graph::NodeId n : a.graph.nodes()) {
      EXPECT_TRUE(a.graph.node_attrs(n).contains("asn"));
      EXPECT_TRUE(a.graph.node_attrs(n).contains("device_type"));
    }
  }
}

TEST(FuzzScenario, DifferentSeedsExploreDifferentShapes) {
  std::set<std::string> shapes;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    shapes.insert(fuzz::generate_scenario(seed, 24).summary);
  }
  EXPECT_GE(shapes.size(), 8u);  // the space is actually being explored
}

TEST(FuzzScenario, GraphmlRoundTripPreservesScenario) {
  fuzz::Scenario s = fuzz::generate_scenario(77, 16);
  s.ibgp = "rr";
  const std::string text = fuzz::scenario_to_graphml(s);
  const fuzz::Scenario back = fuzz::scenario_from_graphml(text);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.ibgp, "rr");
  EXPECT_EQ(back.platform, s.platform);
  // Serializing the round-tripped scenario is a fixpoint.
  EXPECT_EQ(fuzz::scenario_to_graphml(back), text);
}

TEST(FuzzScenario, MutationsApplyAndPreserveInvariants) {
  fuzz::Scenario s = fuzz::generate_scenario(5, 20);
  const std::size_t nodes_before = s.graph.node_count();
  bool any = false;
  for (auto kind :
       {fuzz::MutationKind::kAddLink, fuzz::MutationKind::kRemoveLink,
        fuzz::MutationKind::kCostPerturb, fuzz::MutationKind::kAreaReassign,
        fuzz::MutationKind::kPolicyFlip}) {
    graph::Graph g = s.graph;
    const std::string tag = fuzz::apply_mutation(g, kind, 9001);
    if (tag.empty()) continue;
    any = true;
    EXPECT_EQ(g.node_count(), nodes_before) << tag;
    EXPECT_TRUE(fuzz::connected_without(g, graph::kInvalidNode)) << tag;
  }
  EXPECT_TRUE(any);
  // apply_any_mutation finds one deterministically.
  graph::Graph g1 = s.graph, g2 = s.graph;
  EXPECT_EQ(fuzz::apply_any_mutation(g1, 4), fuzz::apply_any_mutation(g2, 4));
  EXPECT_EQ(topology::to_graphml(g1), topology::to_graphml(g2));
}

// --- Oracles ---------------------------------------------------------------

TEST(FuzzOracles, RegistryHasEightNamedOracles) {
  const auto& oracles = fuzz::oracle_registry();
  ASSERT_EQ(oracles.size(), 8u);
  const char* names[] = {"fib-crosscheck",    "incr-equivalence",
                         "ckpt-resume",       "lint-determinism",
                         "render-roundtrip",  "loader-robustness",
                         "measure-equivalence", "fib-lookup"};
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    EXPECT_EQ(oracles[i].name, names[i]);  // round-robin order
    EXPECT_NE(fuzz::find_oracle(names[i]), nullptr) << names[i];
  }
  EXPECT_EQ(fuzz::find_oracle("nope"), nullptr);
}

TEST(FuzzOracles, AllEightGreenOnCommittedExamples) {
  fuzz::Scenario fig;
  fig.graph = topology::figure5();
  fig.seed = 5;
  fig.summary = "fixture(figure5)";
  for (const auto& oracle : fuzz::oracle_registry()) {
    const auto result = oracle.run(fig);
    EXPECT_FALSE(result.failed())
        << oracle.name << " on figure5: " << result.detail;
  }
}

TEST(FuzzOracles, GreenOnGeneratedMultiAsScenario) {
  const fuzz::Scenario s = fuzz::generate_scenario(3, 10);
  for (const auto& oracle : fuzz::oracle_registry()) {
    const auto result = oracle.run(s);
    EXPECT_FALSE(result.failed())
        << oracle.name << " on " << s.summary << ": " << result.detail;
  }
}

// --- Shrinker --------------------------------------------------------------

// The injected bug: the "oracle" fails iff some live edge joins two
// poisoned nodes — a stand-in for a real two-node interaction bug.
fuzz::Oracle poison_oracle() {
  return {"poison-pair", "fails when two poisoned nodes share a link",
          [](const fuzz::Scenario& s) {
            for (graph::EdgeId e : s.graph.edges()) {
              const auto& a = s.graph.node_attrs(s.graph.edge_src(e));
              const auto& b = s.graph.node_attrs(s.graph.edge_dst(e));
              if (a.contains("poison") && b.contains("poison")) {
                return fuzz::OracleResult::fail("poisoned pair linked");
              }
            }
            return fuzz::OracleResult::pass();
          }};
}

TEST(FuzzShrink, MinimizesInjectedBugToAtMostSixNodes) {
  // A big seeded scenario with the bug planted on one existing link.
  fuzz::Scenario s = fuzz::generate_scenario(1, 40);
  ASSERT_GE(s.graph.node_count(), 10u);
  const graph::EdgeId victim = s.graph.edges().front();
  s.graph.set_node_attr(s.graph.edge_src(victim), "poison", true);
  s.graph.set_node_attr(s.graph.edge_dst(victim), "poison", true);

  const fuzz::Oracle oracle = poison_oracle();
  ASSERT_TRUE(oracle.run(s).failed());

  const fuzz::ShrinkResult shrunk = fuzz::shrink(s, oracle);
  EXPECT_TRUE(oracle.run(shrunk.scenario).failed());  // still a repro
  EXPECT_LE(shrunk.scenario.graph.node_count(), 6u);
  EXPECT_GE(shrunk.steps, 1u);
  EXPECT_GE(shrunk.evaluations, shrunk.steps);

  // Deterministic: shrinking the same failure twice gives the same
  // minimum.
  const fuzz::ShrinkResult again = fuzz::shrink(s, oracle);
  EXPECT_EQ(fuzz::scenario_to_graphml(again.scenario),
            fuzz::scenario_to_graphml(shrunk.scenario));
}

TEST(FuzzShrink, RespectsEvaluationBudget) {
  fuzz::Scenario s = fuzz::generate_scenario(2, 30);
  const graph::EdgeId victim = s.graph.edges().front();
  s.graph.set_node_attr(s.graph.edge_src(victim), "poison", true);
  s.graph.set_node_attr(s.graph.edge_dst(victim), "poison", true);
  fuzz::ShrinkLimits limits;
  limits.max_evals = 5;
  const fuzz::ShrinkResult shrunk = fuzz::shrink(s, poison_oracle(), limits);
  EXPECT_LE(shrunk.evaluations, 5u);
  EXPECT_TRUE(poison_oracle().run(shrunk.scenario).failed());
}

// --- Corpus ----------------------------------------------------------------

TEST(FuzzCorpus, SaveListLoadRoundTrip) {
  const std::string dir = temp_dir("autonet_fuzz_corpus");
  const fuzz::Scenario s = fuzz::generate_scenario(13, 8);
  const std::string path =
      fuzz::save_corpus_entry(dir, "render-roundtrip", s, "detail text");
  EXPECT_TRUE(fs::exists(path));

  const auto entries = fuzz::list_corpus(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].oracle, "render-roundtrip");
  const fuzz::Scenario back = fuzz::load_corpus_entry(entries[0].path);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(fuzz::scenario_to_graphml(back), fuzz::scenario_to_graphml(s));

  // The sibling repro note names the oracle and a replay command that is
  // corpus-location independent.
  const std::string repro = slurp(dir + "/render-roundtrip/13.repro");
  EXPECT_NE(repro.find("oracle: render-roundtrip"), std::string::npos);
  EXPECT_NE(repro.find("autonet fuzz --replay render-roundtrip/13.graphml"),
            std::string::npos);
  fs::remove_all(dir);
}

// --- Campaign driver -------------------------------------------------------

TEST(FuzzSession, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(FuzzSession, ResumedDetailEqualsTheJournalledOne) {
  // Loader-robustness details can quote corrupted input bytes. Run 0 of
  // campaign seed 3 also has a seed beyond the int64 range.
  const std::string dir = temp_dir("autonet_fuzz_detail");
  const std::string detail = "byte \x01 then \r\n \"quoted\" \\ and \t";
  std::ofstream(dir + "/journal.jsonl", std::ios::binary)
      << "{\"campaign\":{\"seed\":3,\"runs\":1,\"max_nodes\":10,\"oracle\":\"\"}}\n"
      << "{\"run\":0,\"seed\":" << fuzz::mix(3, 0)
      << ",\"oracle\":\"loader-robustness\",\"scenario\":\"s\",\"status\":\"fail\","
      << "\"detail\":\"" << obs::json_escape(detail)
      << "\",\"corpus\":\"loader-robustness/1.graphml\"}\n";
  fuzz::FuzzOptions options;
  options.seed = 3;
  options.runs = 1;
  options.max_nodes = 10;
  options.corpus_dir = dir;

  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(report.resumed, 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].detail, detail);
  EXPECT_EQ(report.violations[0].seed, fuzz::mix(3, 0));
  EXPECT_EQ(report.violations[0].oracle, "loader-robustness");
  EXPECT_EQ(report.violations[0].corpus_path, "loader-robustness/1.graphml");
  fs::remove_all(dir);
}

TEST(FuzzSession, CampaignJournalIsByteDeterministic) {
  const std::string dir_a = temp_dir("autonet_fuzz_camp_a");
  const std::string dir_b = temp_dir("autonet_fuzz_camp_b");
  fuzz::FuzzOptions options;
  options.seed = 1;
  options.runs = 8;
  options.max_nodes = 12;

  options.corpus_dir = dir_a;
  const fuzz::FuzzReport a = fuzz::run_fuzz(options);
  options.corpus_dir = dir_b;
  const fuzz::FuzzReport b = fuzz::run_fuzz(options);

  EXPECT_TRUE(a.clean()) << (a.violations.empty() ? "" : a.violations[0].detail);
  EXPECT_EQ(a.executed, 8u);
  EXPECT_EQ(slurp(dir_a + "/journal.jsonl"), slurp(dir_b + "/journal.jsonl"));
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(FuzzSession, CampaignResumesFromJournalWithoutReexecution) {
  const std::string dir = temp_dir("autonet_fuzz_resume");
  fuzz::FuzzOptions options;
  options.seed = 4;
  options.runs = 6;
  options.max_nodes = 10;
  options.corpus_dir = dir;

  obs::Registry registry;
  obs::RegistryScope scope(registry);
  const fuzz::FuzzReport first = fuzz::run_fuzz(options);
  EXPECT_EQ(first.executed, 6u);
  EXPECT_EQ(first.resumed, 0u);
  std::uint64_t runs_counter = 0;
  for (const auto& [name, value] : registry.counter_values()) {
    if (name == "fuzz.runs") runs_counter = value;
  }
  EXPECT_EQ(runs_counter, 6u);

  const std::string journal = slurp(dir + "/journal.jsonl");
  const fuzz::FuzzReport second = fuzz::run_fuzz(options);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.resumed, 6u);
  EXPECT_EQ(second.passed + second.skipped + second.failed, 6u);
  // Resuming a complete campaign appends nothing.
  EXPECT_EQ(slurp(dir + "/journal.jsonl"), journal);

  // A different campaign (more runs) restarts the journal.
  options.runs = 7;
  const fuzz::FuzzReport third = fuzz::run_fuzz(options);
  EXPECT_EQ(third.executed, 7u);
  EXPECT_EQ(third.resumed, 0u);
  fs::remove_all(dir);
}

TEST(FuzzSession, ViolationIsShrunkJournaledAndSavedToCorpus) {
  // End-to-end with a failing campaign: plant a violation by asking for
  // an unknown... rather, drive run_fuzz's failure path directly via a
  // scenario replay against the poison oracle through shrink+corpus.
  const std::string dir = temp_dir("autonet_fuzz_violation");
  fuzz::Scenario s = fuzz::generate_scenario(6, 24);
  const graph::EdgeId victim = s.graph.edges().front();
  s.graph.set_node_attr(s.graph.edge_src(victim), "poison", true);
  s.graph.set_node_attr(s.graph.edge_dst(victim), "poison", true);
  const fuzz::Oracle oracle = poison_oracle();

  const fuzz::ShrinkResult shrunk = fuzz::shrink(s, oracle);
  const std::string path =
      fuzz::save_corpus_entry(dir, oracle.name, shrunk.scenario, shrunk.detail);
  // The persisted repro replays to the same failure.
  const fuzz::Scenario back = fuzz::load_corpus_entry(path);
  EXPECT_TRUE(fuzz::replay_scenario(back, oracle).failed());
  EXPECT_LE(back.graph.node_count(), 6u);
  fs::remove_all(dir);
}

TEST(FuzzSession, UnknownOracleThrows) {
  fuzz::FuzzOptions options;
  options.oracle = "does-not-exist";
  options.corpus_dir = temp_dir("autonet_fuzz_unknown");
  EXPECT_THROW((void)fuzz::run_fuzz(options), std::runtime_error);
  fs::remove_all(options.corpus_dir);
}

}  // namespace
