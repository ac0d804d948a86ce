// Ablation A2 (sec 4.2.1): the read-only commit optimisation — "if the
// client has not changed the state of the object, then no copying to
// object stores is necessary."
//
// We run mixes of read-only and update transactions against an object
// with |St| = 3 and report state copies issued and mean commit latency
// per transaction class. The optimisation is structural in the commit
// processor (an unmodified object is skipped), so the measurement shows
// what it saves: 3 store RPCs + 2PC participation per read-only commit.
// A read-only action also votes read-only at every participant and so
// ends at its prepare, with no phase 2 (DESIGN.md sec 17).
//
// --json-out=PATH writes BENCH_ablation_read_optimisation.json: the
// read_commit and write_commit series pool every committed transaction of
// every read share and seed (sim-time ms), for scripts/bench_gate.py.
#include "bench/common.h"

using namespace gv;
using namespace gv::bench;

namespace {

struct MixResult {
  Summary read_latency;
  Summary write_latency;
  std::uint64_t copies = 0;
  std::uint64_t skips = 0;
};

// Every committed transaction's latency, across read shares and seeds.
struct Pooled {
  Summary read_commit;
  Summary write_commit;
};

MixResult run(int read_pct, std::uint64_t seed, Pooled& pooled) {
  SystemConfig cfg;
  cfg.nodes = 10;
  cfg.seed = seed;
  ReplicaSystem sys{cfg};
  const Uid obj = sys.define_object("obj", "counter", replication::Counter{}.snapshot(), {2},
                                    {4, 5, 6}, ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = sys.client(1);
  MixResult out;
  sys.sim().spawn([](core::ClientSession* client, Uid obj, int read_pct, MixResult& out,
                     Pooled& pooled) -> sim::Task<> {
    auto& sim = client->runtime().endpoint().node().sim();
    Rng rng{client->runtime().endpoint().node_id() * 7919 + 13};
    for (int i = 0; i < 60; ++i) {
      const bool is_read = static_cast<int>(rng.uniform(100)) < read_pct;
      const sim::SimTime start = sim.now();
      auto txn = client->begin();
      // Plain if/else: GCC 12 miscompiles co_await inside ?: operands.
      Result<Buffer> r = Err::Aborted;
      if (is_read)
        r = co_await txn->invoke(obj, "read", Buffer{}, LockMode::Read);
      else
        r = co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
      if (r.ok() && (co_await txn->commit()).ok()) {
        const double ms = static_cast<double>(sim.now() - start) / sim::kMillisecond;
        if (is_read) {
          out.read_latency.add(ms);
          pooled.read_commit.add(ms);
        } else {
          out.write_latency.add(ms);
          pooled.write_commit.add(ms);
        }
      } else if (!txn->finished()) {
        (void)co_await txn->abort();
      }
    }
  }(client, obj, read_pct, out, pooled));
  sys.sim().run();
  const Counters agg = sys.aggregate_counters();
  out.copies = agg.get("commit.state_copied");
  out.skips = agg.get("commit.read_only_skip");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = parse_json_out(argc, argv);
  Pooled pooled;
  std::printf("A2 / sec 4.2.1 ablation: read-only commit optimisation, |St|=3\n");
  std::printf("60 txns per run, 5 seeds; read-only commits skip the copy-back\n");
  core::Table table({"read %", "state copies", "read-only skips", "read commit (ms)",
                     "write commit (ms)"});
  for (int read_pct : {0, 25, 50, 75, 100}) {
    std::uint64_t copies = 0, skips = 0;
    Summary read_lat, write_lat;  // per-seed means
    for (auto seed : seeds()) {
      auto r = run(read_pct, seed, pooled);
      copies += r.copies;
      skips += r.skips;
      if (r.read_latency.count() > 0) read_lat.add(r.read_latency.mean());
      if (r.write_latency.count() > 0) write_lat.add(r.write_latency.mean());
    }
    table.add_row({std::to_string(read_pct), std::to_string(copies), std::to_string(skips),
                   read_lat.count() ? core::Table::fmt(read_lat.mean()) : "-",
                   write_lat.count() ? core::Table::fmt(write_lat.mean()) : "-"});
  }
  table.print("copy traffic vs read share");
  std::printf("\nExpected shape: state copies fall linearly to zero as the read share\n"
              "rises; read-only commits run measurably faster than update commits\n"
              "(no store copies, no Exclude risk, no phase 2).\n");
  BenchJson json("ablation_read_optimisation");
  json.add_summary("read_commit", pooled.read_commit);
  json.add_summary("write_commit", pooled.write_commit);
  if (!json_out.empty() && !json.write(json_out))
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
  return 0;
}
