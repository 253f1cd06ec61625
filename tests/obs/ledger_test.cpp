#include "spc/obs/ledger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "spc/support/error.hpp"

namespace spc::obs {
namespace {

MachineFingerprint sample_fp() {
  MachineFingerprint fp;
  fp.cpu_model = "Test CPU @ 3.00GHz";
  fp.cpus = 8;
  fp.numa_nodes = 2;
  fp.llc_bytes = 16ull << 20;
  fp.llc_instances = 2;
  fp.l2_bytes = 1ull << 20;
  fp.isa = "avx2";
  fp.hostname = "box-a";
  return fp;
}

TEST(MachineFingerprint, JsonRoundTrip) {
  const MachineFingerprint fp = sample_fp();
  const MachineFingerprint back = MachineFingerprint::from_json(fp.to_json());
  EXPECT_EQ(back.cpu_model, fp.cpu_model);
  EXPECT_EQ(back.cpus, fp.cpus);
  EXPECT_EQ(back.numa_nodes, fp.numa_nodes);
  EXPECT_EQ(back.llc_bytes, fp.llc_bytes);
  EXPECT_EQ(back.llc_instances, fp.llc_instances);
  EXPECT_EQ(back.l2_bytes, fp.l2_bytes);
  EXPECT_EQ(back.isa, fp.isa);
  EXPECT_EQ(back.hostname, fp.hostname);
  EXPECT_EQ(back.id(), fp.id());
}

TEST(MachineFingerprint, IdIs16HexDigitsAndStable) {
  const std::string id = sample_fp().id();
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(id, sample_fp().id());
}

TEST(MachineFingerprint, IdIgnoresHostnameButNotHardware) {
  MachineFingerprint a = sample_fp();
  MachineFingerprint b = sample_fp();
  b.hostname = "box-b";
  // Same hardware on two hosts → same id (baselines are shareable).
  EXPECT_EQ(a.id(), b.id());
  b.llc_bytes *= 2;
  EXPECT_NE(a.id(), b.id());
  MachineFingerprint c = sample_fp();
  c.isa = "sse4.2";
  EXPECT_NE(a.id(), c.id());
}

TEST(MachineFingerprint, HostDiscoveryPopulatesBasics) {
  const MachineFingerprint& fp = machine_fingerprint();
  EXPECT_GT(fp.cpus, 0u);
  EXPECT_GE(fp.numa_nodes, 1u);
  EXPECT_FALSE(fp.isa.empty());
  // Same process → same cached fingerprint object.
  EXPECT_EQ(&fp, &machine_fingerprint());
}

TEST(BuildGitSha, EnvOverrideWins) {
  ::setenv("SPC_GIT_SHA", "deadbeef1234", 1);
  EXPECT_EQ(build_git_sha(), "deadbeef1234");
  ::unsetenv("SPC_GIT_SHA");
  EXPECT_FALSE(build_git_sha().empty());
}

Json full_record() {
  Json j = Json::object();
  j.set("bench", "regress_check");
  j.set("git_sha", "abc123");
  j.set("machine_id", "0123456789abcdef");
  j.set("machine", sample_fp().to_json());
  j.set("matrix", "lap2d-s");
  j.set("cls", "stencil");
  j.set("set", "MS");
  j.set("format", "csr-du");
  j.set("isa", "avx2");
  j.set("numa", "off");
  j.set("schedule", "static");
  j.set("threads", std::uint64_t{2});
  j.set("nnz", std::uint64_t{12345});
  j.set("iters", std::uint64_t{4});
  j.set("seconds", 0.004);
  j.set("ns_per_nnz", 81.0);
  j.set("bytes_per_nnz", 12.5);
  Json roof = Json::object();
  roof.set("gbps", 10.0);
  roof.set("min_ns_per_nnz", 1.25);
  roof.set("frac", 0.5);
  j.set("roofline", std::move(roof));
  Json samples = Json::array();
  samples.push(1000.0);
  samples.push(1010.0);
  samples.push(990.0);
  samples.push(1005.0);
  j.set("samples_ns", std::move(samples));
  return j;
}

TEST(ParseLedgerRecord, FullRecord) {
  LedgerRecord r;
  ASSERT_TRUE(parse_ledger_record(full_record(), &r));
  EXPECT_EQ(r.bench, "regress_check");
  EXPECT_EQ(r.matrix, "lap2d-s");
  EXPECT_EQ(r.format, "csr-du");
  EXPECT_EQ(r.isa, "avx2");
  EXPECT_EQ(r.threads, 2u);
  EXPECT_EQ(r.machine_id, "0123456789abcdef");
  EXPECT_EQ(r.git_sha, "abc123");
  EXPECT_EQ(r.nnz, 12345u);
  EXPECT_DOUBLE_EQ(r.ns_per_nnz, 81.0);
  EXPECT_DOUBLE_EQ(r.bytes_per_nnz, 12.5);
  EXPECT_DOUBLE_EQ(r.frac_roofline, 0.5);
  ASSERT_EQ(r.samples_ns.size(), 4u);
  EXPECT_DOUBLE_EQ(r.samples_ns[0], 1000.0);
}

TEST(ParseLedgerRecord, PreLedgerRecordGetsDefaults) {
  // A record written before the ledger existed: no machine, no samples,
  // no isa/numa/schedule.
  Json j = Json::object();
  j.set("bench", "table2");
  j.set("matrix", "lap3d-s");
  j.set("format", "csr");
  j.set("threads", std::uint64_t{1});
  LedgerRecord r;
  ASSERT_TRUE(parse_ledger_record(j, &r));
  EXPECT_EQ(r.isa, "scalar");
  EXPECT_EQ(r.numa, "off");
  EXPECT_EQ(r.schedule, "static");
  EXPECT_TRUE(r.machine_id.empty());
  EXPECT_TRUE(r.samples_ns.empty());
}

TEST(ParseLedgerRecord, RejectsNonRecords) {
  LedgerRecord r;
  EXPECT_FALSE(parse_ledger_record(Json::object(), &r));
  EXPECT_FALSE(parse_ledger_record(Json(1), &r));
  Json j = Json::object();
  j.set("matrix", "m");  // format missing
  EXPECT_FALSE(parse_ledger_record(j, &r));
}

TEST(ParseLedgerRecord, DropsNonFiniteSamples) {
  Json j = full_record();
  Json samples = Json::array();
  samples.push(100.0);
  samples.push(Json());  // serialized NaN → null
  samples.push(200.0);
  j.set("samples_ns", std::move(samples));
  LedgerRecord r;
  ASSERT_TRUE(parse_ledger_record(j, &r));
  ASSERT_EQ(r.samples_ns.size(), 2u);
  EXPECT_DOUBLE_EQ(r.samples_ns[0], 100.0);
  EXPECT_DOUBLE_EQ(r.samples_ns[1], 200.0);
}

TEST(LedgerRecord, KeyCoversCellCoordinatesNotMachine) {
  LedgerRecord r;
  ASSERT_TRUE(parse_ledger_record(full_record(), &r));
  EXPECT_EQ(r.key(),
            "regress_check|lap2d-s|csr-du|avx2|off|static|no|2");
  LedgerRecord other = r;
  other.machine_id = "ffffffffffffffff";
  EXPECT_EQ(other.key(), r.key());  // machine checked separately
  other.threads = 4;
  EXPECT_NE(other.key(), r.key());
}

TEST(Ledger, AppendAndReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/spc_ledger_rt.jsonl";
  std::remove(path.c_str());
  append_ledger(path, full_record());
  append_ledger(path, full_record());
  std::size_t bad = 0;
  const std::vector<LedgerRecord> rows = read_ledger(path, &bad);
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key(), rows[1].key());
  EXPECT_EQ(rows[0].samples_ns.size(), 4u);
}

TEST(Ledger, ReadSkipsBadLinesAndMissingFileIsEmpty) {
  const std::string path = ::testing::TempDir() + "/spc_ledger_bad.jsonl";
  {
    std::ofstream f(path);
    f << full_record().dump() << "\n";
    f << "this is not json\n";
    f << "{\"matrix\":\"x\"}\n";  // json but not a record
    f << "\n";                    // blank lines are not an error
  }
  std::size_t bad = 0;
  EXPECT_EQ(read_ledger(path, &bad).size(), 1u);
  EXPECT_EQ(bad, 2u);
  EXPECT_TRUE(read_ledger("/nonexistent/spc.jsonl").empty());
}

TEST(Ledger, AppendToUnwritablePathThrows) {
  EXPECT_THROW(append_ledger("/nonexistent-dir/x.jsonl", full_record()),
               Error);
}

}  // namespace
}  // namespace spc::obs
