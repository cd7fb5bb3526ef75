// Crash-consistent checkpoint storage: atomic writes, content-hash
// verification against torn or tampered artifacts, manifest recovery,
// downstream invalidation, lossless graph/ANM artifact round-trips, the
// streaming record writers against their value-tree reference, stores
// written in the earlier indented format, and the journal's
// checkpoint-pointer records.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_reference.hpp"
#include "core/checkpoint.hpp"
#include "core/hash.hpp"
#include "core/workflow.hpp"
#include "deploy/archive.hpp"
#include "experiment/journal.hpp"
#include "fuzz/scenario.hpp"
#include "graph/graph.hpp"
#include "nidb/value.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "verify/rules.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

std::uint64_t counter_value(obs::Registry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

// --- Primitives -----------------------------------------------------------

TEST(CheckpointHash, DeterministicAndContentSensitive) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
  // FNV-1a offset basis for the empty string (stable across platforms).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
}

TEST(WriteFileAtomic, WritesAndReplacesWithoutTemps) {
  const std::string dir = temp_dir("autonet_atomic_test");
  fs::create_directories(dir);
  const std::string path = dir + "/target.txt";
  core::write_file_atomic(path, "first");
  EXPECT_EQ(slurp(path), "first");
  core::write_file_atomic(path, "second");
  EXPECT_EQ(slurp(path), "second");
  // No temp files are left behind: the rename consumed them.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "target.txt");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(WriteFileAtomic, RefusesToReplaceAFifo) {
  std::string templ = (fs::temp_directory_path() / "autonet_atomic_fifo_XXXXXX").string();
  ASSERT_NE(::mkdtemp(templ.data()), nullptr);
  const std::string path = templ + "/pipe";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  EXPECT_THROW(core::write_file_atomic(path, "report"), core::CheckpointError);
  struct stat st {};
  ASSERT_EQ(::lstat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(templ);
}

TEST(AppendLineDurable, AppendsOneLinePerCall) {
  const std::string dir = temp_dir("autonet_append_test");
  fs::create_directories(dir);
  const std::string path = dir + "/log.jsonl";
  core::append_line_durable(path, "one");
  core::append_line_durable(path, "two");
  EXPECT_EQ(slurp(path), "one\ntwo\n");
  fs::remove_all(dir);
}

TEST(Journal, ClaimKeepsItsOwnCampaignAndStartsAnyOtherOver) {
  const std::string dir = temp_dir("autonet_core_journal_test");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.jsonl";
  const std::string mine = "{\"campaign\":{\"seed\":1}}";
  {
    // Written before journals named their campaign: started over.
    std::ofstream file(path, std::ios::binary);
    file << "{\"run\":0}\n";
  }
  core::Journal journal(path);
  journal.claim(mine);
  EXPECT_EQ(slurp(path), mine + "\n");
  journal.append("{\"run\":0}");
  journal.append("{\"run\":1");  // torn by a kill mid-append
  journal.claim(mine);
  const std::vector<nidb::Value> records = journal.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("run")->as_int(), 0);

  journal.claim("{\"campaign\":{\"seed\":2}}");
  EXPECT_EQ(slurp(path), "{\"campaign\":{\"seed\":2}}\n");
  EXPECT_TRUE(journal.records().empty());
  fs::remove_all(dir);
}

// --- CheckpointStore ------------------------------------------------------

TEST(CheckpointStore, RecordsRestoresAndPersistsAcrossReopen) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  const std::string dir = temp_dir("autonet_ckpt_store_test");
  {
    core::CheckpointStore store(dir);
    EXPECT_FALSE(store.has_phase("load"));
    EXPECT_THROW((void)store.artifact("load"), core::CheckpointError);
    store.record_phase("load", "load.json", "{\"load\":1}", 12.5);
    store.record_phase("design", "design.json", "{\"design\":2}", 7.25);
    store.set_meta({{"input_hash", "42"}});
    EXPECT_TRUE(store.has_phase("load"));
    EXPECT_EQ(store.artifact("design"), "{\"design\":2}");
    EXPECT_DOUBLE_EQ(store.phase_ms("load"), 12.5);
  }
  EXPECT_EQ(counter_value(registry, "ckpt.write"), 2u);

  // A second open (a resumed process) sees exactly the recorded state.
  core::CheckpointStore reopened(dir);
  EXPECT_EQ(reopened.phases(), (std::vector<std::string>{"load", "design"}));
  EXPECT_EQ(reopened.artifact("load"), "{\"load\":1}");
  EXPECT_DOUBLE_EQ(reopened.phase_ms("design"), 7.25);
  EXPECT_EQ(reopened.meta("input_hash"), "42");
  EXPECT_EQ(reopened.meta("no_such_key"), "");
  fs::remove_all(dir);
}

TEST(CheckpointStore, SetMetaMergesInOneRewriteAndSkipsUnchangedValues) {
  const std::string dir = temp_dir("autonet_ckpt_meta_test");
  const std::string manifest = dir + "/manifest.json";
  core::CheckpointStore store(dir);
  store.set_meta({{"input_hash", "1"}, {"options", "2"}, {"options_build", "3"}});
  ASSERT_TRUE(fs::exists(manifest));
  // Values already set write nothing: a removed manifest stays removed.
  fs::remove(manifest);
  store.set_meta({{"input_hash", "1"}, {"options", "2"}});
  EXPECT_FALSE(fs::exists(manifest));
  // One changed value rewrites the manifest, which keeps every key.
  store.set_meta({{"input_hash", "1"}, {"options", "4"}});
  const core::CheckpointStore reopened(dir);
  EXPECT_EQ(reopened.meta("input_hash"), "1");
  EXPECT_EQ(reopened.meta("options"), "4");
  EXPECT_EQ(reopened.meta("options_build"), "3");
  fs::remove_all(dir);
}

TEST(CheckpointStore, TamperedArtifactFailsTheHashCheck) {
  const std::string dir = temp_dir("autonet_ckpt_tamper_test");
  core::CheckpointStore store(dir);
  store.record_phase("compile", "compile.json", "{\"nidb\":true}", 1);
  {
    std::ofstream file(dir + "/compile.json", std::ios::binary);
    file << "{\"nidb\":fals";  // torn rewrite from a crashed editor
  }
  EXPECT_FALSE(store.has_phase("compile"));
  EXPECT_THROW((void)store.artifact("compile"), core::CheckpointError);
  // A reopened store agrees: the record exists but fails verification.
  core::CheckpointStore reopened(dir);
  EXPECT_FALSE(reopened.has_phase("compile"));
  fs::remove_all(dir);
}

TEST(CheckpointStore, MissingArtifactFileIsNotAPhase) {
  const std::string dir = temp_dir("autonet_ckpt_missing_test");
  core::CheckpointStore store(dir);
  store.record_phase("render", "render.json", "content", 1);
  fs::remove(dir + "/render.json");
  EXPECT_FALSE(store.has_phase("render"));
  fs::remove_all(dir);
}

TEST(CheckpointStore, TornManifestRecoversAsEmpty) {
  const std::string dir = temp_dir("autonet_ckpt_torn_test");
  {
    core::CheckpointStore store(dir);
    store.record_phase("load", "load.json", "x", 1);
  }
  {
    std::ofstream file(dir + "/manifest.json", std::ios::binary);
    file << "{\"phases\": [{\"name\": \"loa";  // kill mid-write
  }
  core::CheckpointStore recovered(dir);
  EXPECT_TRUE(recovered.phases().empty());
  EXPECT_FALSE(recovered.has_phase("load"));
  // The store remains usable after recovery.
  recovered.record_phase("load", "load.json", "y", 2);
  EXPECT_EQ(recovered.artifact("load"), "y");
  fs::remove_all(dir);
}

TEST(CheckpointStore, InvalidateDropsDownstreamRecordsOnly) {
  const std::string dir = temp_dir("autonet_ckpt_invalidate_test");
  core::CheckpointStore store(dir);
  store.record_phase("load", "load.json", "l", 1);
  store.record_phase("design", "design.json", "d", 1);
  store.record_phase("compile", "compile.json", "c", 1);
  store.invalidate({"design", "compile", "render"});  // absent name ok
  EXPECT_TRUE(store.has_phase("load"));
  EXPECT_FALSE(store.has_phase("design"));
  EXPECT_FALSE(store.has_phase("compile"));
  EXPECT_EQ(store.phases(), (std::vector<std::string>{"load"}));
  // The invalidation is durable, not just in-memory.
  core::CheckpointStore reopened(dir);
  EXPECT_EQ(reopened.phases(), (std::vector<std::string>{"load"}));
  fs::remove_all(dir);
}

// --- Artifact serialization round-trips -----------------------------------

TEST(CheckpointSerialize, GraphRoundTripsLosslessly) {
  graph::Graph g(false, "rt");
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto e = g.add_edge(a, b);
  g.set_node_attr(a, "asn", std::int64_t{65001});
  g.set_node_attr(a, "lat", 0.1);  // not exactly representable: %.17g must hold it
  g.set_node_attr(b, "edge_router", true);
  g.set_node_attr(b, "label", "pop-B");
  g.set_edge_attr(e, "weight", 1e300);
  g.set_edge_attr(e, "cost", std::int64_t{10});

  const std::string once = core::graph_to_json(g);
  const graph::Graph restored = core::graph_from_value(nidb::parse_json(once));
  const std::string twice = core::graph_to_json(restored);
  // Byte-identical re-serialization is the lossless-ness oracle: every
  // attr (including doubles) survived the trip exactly.
  EXPECT_EQ(once, twice);
  EXPECT_EQ(restored.node_count(), 2u);
  EXPECT_EQ(restored.edge_count(), 1u);
  EXPECT_FALSE(restored.directed());
  EXPECT_EQ(restored.name(), "rt");
}

TEST(CheckpointSerialize, DirectednessSurvives) {
  graph::Graph g(true, "digraph");
  g.add_edge(g.add_node("u"), g.add_node("v"));
  const graph::Graph restored =
      core::graph_from_value(nidb::parse_json(core::graph_to_json(g)));
  EXPECT_TRUE(restored.directed());
}

TEST(CheckpointSerialize, AnmRoundTripsARealDesign) {
  // Run the real design rules over figure5, snapshot the ANM, restore it
  // into a fresh model, and demand byte-identical re-serialization.
  core::Workflow wf;
  wf.load(topology::figure5()).design();
  const std::string once = core::anm_to_json(wf.anm());

  anm::AbstractNetworkModel fresh;
  core::anm_from_value(nidb::parse_json(once), fresh);
  EXPECT_EQ(once, core::anm_to_json(fresh));
  EXPECT_TRUE(fresh.has_overlay("ospf"));
  EXPECT_TRUE(fresh.has_overlay("phy"));
  EXPECT_EQ(fresh.overlay("phy").node_count(),
            wf.anm().overlay("phy").node_count());
}

// --- Streaming writers against the value-tree reference -------------------
// Records and input hashes were written as to_json(false) of a value
// tree (tests/checkpoint_reference.hpp); the streaming writers must emit
// the same bytes, so every input_hash and record stays comparable.

void expect_graph_bytes_match(const graph::Graph& g, const std::string& what) {
  EXPECT_EQ(core::graph_to_json(g), reference::graph_to_value(g).to_json(false)) << what;
}

void expect_anm_bytes_match(const anm::AbstractNetworkModel& anm, const std::string& what) {
  EXPECT_EQ(core::anm_to_json(anm), reference::anm_to_value(anm).to_json(false)) << what;
}

// One graph holding every attribute kind, on nodes, edges and the graph
// itself, with names and strings that need escaping.
graph::Graph every_attribute_kind(bool directed) {
  graph::Graph g(directed, "kinds \"quoted\" \\ \x01 caf\xc3\xa9");
  g.data()["unset"] = graph::AttrValue();
  g.data()["flag"] = true;
  g.data()["ints"] = std::vector<std::int64_t>{};
  const auto a = g.add_node("a\"b\\c");
  const auto b = g.add_node("tab\there\nnewline");
  const auto c = g.add_node("\xe2\x86\x92 utf-8");
  const auto lone = g.add_node("no attributes");
  (void)lone;
  g.set_node_attr(a, "off", false);
  g.set_node_attr(a, "asn", std::int64_t{65001});
  g.set_node_attr(a, "min", std::numeric_limits<std::int64_t>::min());
  g.set_node_attr(a, "max", std::numeric_limits<std::int64_t>::max());
  g.set_node_attr(a, "lat", 0.1);
  g.set_node_attr(a, "neg", -2.5e-7);
  g.set_node_attr(b, "huge", 1e300);
  g.set_node_attr(b, "whole", 3.0);
  g.set_node_attr(b, "inf", std::numeric_limits<double>::infinity());
  g.set_node_attr(b, "controls", std::string("\x00\x01\x1f\x7f\r\"\\", 7));
  g.set_node_attr(b, "utf8", "\xc3\xa9\xe2\x86\x92\xf0\x9f\x98\x80");
  g.set_node_attr(c, "ints", std::vector<std::int64_t>{-1, 0, 42});
  g.set_node_attr(c, "strings", std::vector<std::string>{"x", "", "q\"\\\n"});
  g.set_node_attr(c, "no strings", std::vector<std::string>{});
  g.set_node_attr(c, "unset", graph::AttrValue());
  const auto ab = g.add_edge(a, b);
  const auto bc = g.add_edge(b, c);
  g.add_edge(c, a);
  g.set_edge_attr(ab, "ospf_cost", std::int64_t{10});
  g.set_edge_attr(ab, "weight", 0.30000000000000004);
  g.set_edge_attr(bc, "label", "edge \"b\" -> \"c\"");
  return g;
}

TEST(CheckpointWriter, GraphMatchesTheValueTreeOnEveryAttributeKind) {
  for (const bool directed : {false, true}) {
    const graph::Graph g = every_attribute_kind(directed);
    const std::string what = directed ? "directed" : "undirected";
    expect_graph_bytes_match(g, what);
    // The reader takes the writer's text back to the same bytes.
    const std::string once = core::graph_to_json(g);
    EXPECT_EQ(core::graph_to_json(core::graph_from_value(nidb::parse_json(once))), once)
        << what;
  }
  expect_graph_bytes_match(graph::Graph(), "empty graph");
}

TEST(CheckpointWriter, AnmMatchesTheValueTreeOnTheBuiltins) {
  const std::vector<std::pair<std::string, graph::Graph>> builtins = {
      {"figure5", topology::figure5()},
      {"small-internet", topology::small_internet()},
      {"bad-gadget", topology::bad_gadget()},
      {"med-oscillation", topology::med_oscillation()},
      {"nren", topology::make_nren_model()},
  };
  for (const auto& [name, input] : builtins) {
    expect_graph_bytes_match(input, name + " input");
    core::Workflow wf;
    wf.load(input);
    expect_anm_bytes_match(wf.anm(), name + " loaded");
    wf.design();
    expect_anm_bytes_match(wf.anm(), name + " designed");
  }
}

TEST(CheckpointWriter, AnmMatchesTheValueTreeOnFuzzDesigns) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const fuzz::Scenario s = fuzz::generate_scenario(seed, 20);
    core::WorkflowOptions options;
    options.platform = s.platform;
    options.ibgp = s.ibgp;
    core::Workflow wf(options);
    wf.load(s.graph).design();
    const std::string what = "seed " + std::to_string(seed) + " (" + s.summary + ")";
    expect_graph_bytes_match(s.graph, what);
    expect_anm_bytes_match(wf.anm(), what);
  }
}

// --- Stores written in the earlier record format ---------------------------

// Rewrites a load..lint store the way stores were written before records
// were compact and the render record was a deploy archive: every record
// indented JSON, the render record a JSON object of files named
// render.json, each through record_phase with its phase's event slice.
void rewrite_in_the_indented_format(const std::string& dir, const graph::Graph& input,
                                    const core::Workflow& built) {
  core::Workflow loaded;
  loaded.load(input);
  core::Workflow designed;
  designed.load(input).design();
  nidb::Object files;
  for (const auto& [path, content] : built.configs()) files[path] = content;

  core::CheckpointStore store(dir);
  const std::vector<std::pair<std::string, std::string>> records = {
      {"load", reference::anm_to_value(loaded.anm()).to_json(true)},
      {"design", reference::anm_to_value(designed.anm()).to_json(true)},
      {"compile", built.nidb().to_json(true)},
      {"render", nidb::Value(std::move(files)).to_json(true)},
      {"lint", built.lint_report().to_json(true)},
  };
  for (const auto& [phase, content] : records) {
    store.record_phase(phase, phase + ".json", content, store.phase_ms(phase),
                       store.read_events(phase));
  }
  fs::remove(dir + "/render.archive");
}

TEST(CheckpointFormat, IndentedStoreRestoresToCompileAndRerendersTheRest) {
  const std::string dir = temp_dir("autonet_ckpt_indented_store");
  const graph::Graph input = topology::small_internet();
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::Workflow first;
    first.use_telemetry(&registry);
    first.checkpoint_to(dir);
    first.load(input).design().compile().render().lint();
    EXPECT_EQ(deploy::unpack(core::CheckpointStore(dir).artifact("render")),
              first.configs());
    rewrite_in_the_indented_format(dir, input, first);
  }

  // The earlier render record is not a deploy archive: a typed rejection.
  EXPECT_THROW((void)deploy::unpack(core::CheckpointStore(dir).artifact("render")),
               deploy::ArchiveError);

  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::Workflow resumed;
  resumed.use_telemetry(&registry);
  resumed.checkpoint_to(dir);
  resumed.load(input).design().compile().render().lint();
  EXPECT_EQ(resumed.restored_phases(),
            (std::vector<std::string>{"load", "design", "compile"}));

  core::Workflow fresh;
  fresh.load(input).design().compile().render().lint();
  EXPECT_EQ(resumed.configs(), fresh.configs());
  EXPECT_EQ(resumed.nidb().to_json(), fresh.nidb().to_json());
  EXPECT_EQ(verify::to_sarif(resumed.lint_report()), verify::to_sarif(fresh.lint_report()));

  // The re-run phases re-recorded in the current format.
  const core::CheckpointStore store(dir);
  EXPECT_EQ(deploy::unpack(store.artifact("render")), fresh.configs());
  EXPECT_EQ(store.artifact("lint"), fresh.lint_report().to_json(false));
  EXPECT_FALSE(fs::exists(dir + "/render.json"));
  fs::remove_all(dir);
}

// --- Journal checkpoint records -------------------------------------------

experiment::RunResult ok_result(const std::string& id) {
  experiment::RunResult result;
  result.id = id;
  result.ok = true;
  return result;
}

TEST(JournalCheckpoint, RecordRoundTrips) {
  experiment::CheckpointRecord record;
  record.run_id = "ibgp=mesh,dns=on/rep0";
  record.dir = "/tmp/ckpt/run0";
  record.reason = "cancelled at phase.deploy: user interrupt (SIGINT)";
  record.phases = {"load", "design", "compile"};
  const auto parsed = experiment::CheckpointRecord::from_json(record.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->run_id, record.run_id);
  EXPECT_EQ(parsed->dir, record.dir);
  EXPECT_EQ(parsed->reason, record.reason);
  EXPECT_EQ(parsed->phases, record.phases);
  // Result lines are not checkpoint records and vice versa.
  EXPECT_FALSE(
      experiment::CheckpointRecord::from_json(ok_result("a/rep0").to_json()));
  EXPECT_THROW((void)experiment::RunResult::from_json(record.to_json()),
               std::exception);
}

TEST(JournalCheckpoint, LoadLatestWinsAndCompletionSupersedes) {
  const std::string dir = temp_dir("autonet_journal_ckpt_test");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.jsonl";
  experiment::Journal journal(path);

  experiment::CheckpointRecord first;
  first.run_id = "a/rep0";
  first.dir = "d1";
  first.phases = {"load"};
  journal.append_checkpoint(first);

  experiment::CheckpointRecord second = first;
  second.dir = "d1";
  second.phases = {"load", "design", "compile"};
  journal.append_checkpoint(second);  // same run, further along

  experiment::CheckpointRecord other;
  other.run_id = "b/rep0";
  other.dir = "d2";
  other.phases = {"load"};
  journal.append_checkpoint(other);

  journal.append(ok_result("b/rep0"));  // b completed: its pointer is spent

  auto records = journal.load_checkpoints();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(records.contains("a/rep0"));
  EXPECT_EQ(records.at("a/rep0").phases,
            (std::vector<std::string>{"load", "design", "compile"}));

  // Results loading skips checkpoint lines entirely.
  const auto results = journal.load();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.contains("b/rep0"));

  // A torn trailing ckpt line (kill mid-append) is tolerated.
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file << "{\"ckpt\":{\"run_id\":\"c/rep0\",\"ph";
  }
  EXPECT_EQ(journal.load_checkpoints().size(), 1u);
  fs::remove_all(dir);
}

TEST(JournalCheckpoint, FailedResultDoesNotSpendThePointer) {
  const std::string dir = temp_dir("autonet_journal_failed_test");
  fs::create_directories(dir);
  experiment::Journal journal(dir + "/journal.jsonl");
  experiment::CheckpointRecord record;
  record.run_id = "a/rep0";
  record.dir = "d";
  journal.append_checkpoint(record);
  experiment::RunResult failed;
  failed.id = "a/rep0";
  failed.ok = false;
  failed.error = "deploy failed";
  journal.append(failed);
  // The failed run will re-execute; its checkpoint stays available.
  EXPECT_TRUE(journal.load_checkpoints().contains("a/rep0"));
  fs::remove_all(dir);
}

}  // namespace
