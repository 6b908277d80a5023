// Fig. 10 (extension): aggregate read-bandwidth scaling with interleaved
// memory channels. M raw masters stream disjoint contiguous regions
// through the channel-interleaved fabric; aggregate R utilization (every
// channel link's payload against ONE link's capacity) scales near-linearly
// with channel count until the master pool can no longer feed the links —
// the saturation knee this bench records per (masters, mapping) curve.
//
// Expected shape: with M masters, each able to sink one R beat per cycle,
// aggregate utilization tracks min(masters, channels) and the knee sits
// where channels catch up with the masters' sink rate; the DRAM mapping
// moves the curve only marginally (streams are row-friendly under all
// three mappings once split per channel).
#include "bench_common.hpp"
#include "mem/dram_timing.hpp"

namespace {

using namespace axipack;

sys::AxisValue mapping_value(mem::DramMapping m) {
  return sys::AxisValue::shaped(
      mem::dram_mapping_name(m), [m](sys::PointDraft& d) {
        d.params["mapping"] = static_cast<double>(m);
      });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 10", "multi-channel read-bandwidth scaling");
  sys::ExperimentSpec spec("fig10");
  spec.param_axis("channels", "channels", {1, 2, 4, 8})
      .param_axis("masters", "masters", {8, 16, 32})
      .axis("mapping", {mapping_value(mem::DramMapping::permuted),
                        mapping_value(mem::DramMapping::bank_interleaved),
                        mapping_value(mem::DramMapping::row_interleaved)})
      .runner([](const sys::GridPoint& p) {
        // Quick streams still span every channel (8 granules per master).
        return sys::channel_scaling_point(p,
                                          p.quick ? 32 * 1024 : 256 * 1024);
      });
  sys::ResultSet set = ctx.prepare(spec).run();
  sys::stamp_channel_scaling(set);
  ctx.report(std::move(set));

  std::printf("\nexpected shape: aggregate R-util tracks min(masters, "
              "channels); the knee is\nwhere extra channels stop paying "
              "because the master pool is the bottleneck\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
