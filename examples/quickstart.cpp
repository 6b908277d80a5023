// Quickstart: drive an AXI-Pack adapter + banked memory directly over an
// AXI port, exactly like the paper's Fig. 1 example — a strided read with
// stride 5 starting at element 4 — and watch the scattered elements come
// back tightly packed on the R channel.
//
// Build & run:  ./build/examples/quickstart
// Exits non-zero if the burst does not complete or an element is wrong.
#include <cstdio>
#include <memory>

#include "axi/burst.hpp"
#include "axi/types.hpp"
#include "systems/builder.hpp"
#include "systems/system.hpp"

int main() {
  using namespace axipack;

  // ---- assemble: port -> AXI-Pack adapter -> 17-bank word memory ----
  sys::SystemBuilder builder;
  builder.bus_bits(256)                      // 8 word ports, 17 banks
      .mem_region(0x8000'0000ull, 1 << 20)   // (paper defaults)
      .queue_depth(4)
      .monitor(false);                       // host port feeds the adapter
  const sys::MasterId host = builder.attach_port("host");
  auto system = builder.build();
  sim::Kernel& kernel = system->kernel();
  mem::BackingStore& store = system->store();
  axi::AxiPort& port = system->master_port(host);

  // ---- data: the value at element i is just i (like Fig. 1's addresses) --
  for (std::uint32_t i = 0; i < 256; ++i) {
    store.write_u32(0x8000'0000ull + 4ull * i, i);
  }

  // ---- a strided AXI-Pack read: 16 elements, start 4, stride 5 ----------
  const auto bursts = axi::split_pack_strided(
      /*base=*/0x8000'0000ull + 4ull * 4, /*stride_bytes=*/5 * 4,
      /*elem_bytes=*/4, /*num_elems=*/16, /*bus_bytes=*/32);
  std::printf("AXI-Pack strided read: 16 elements, stride 5, from elem 4\n");
  std::printf("(a plain AXI4 master would need 16 narrow single-beat "
              "bursts;\n AXI-Pack packs them into %u wide beats)\n\n",
              bursts[0].beats());

  port.ar.push(bursts[0]);
  unsigned beat_no = 0;
  std::uint32_t elem_no = 0;
  bool correct = true;
  const sim::RunStatus status = kernel.run_until([&] {
    while (port.r.can_pop()) {
      const axi::AxiR beat = port.r.pop();
      std::printf("R beat %u (%2u useful bytes): ", beat_no++,
                  beat.useful_bytes);
      for (unsigned e = 0; e < beat.useful_bytes / 4; ++e) {
        std::uint32_t v;
        axi::extract_bytes(beat.data, 4 * e,
                           reinterpret_cast<std::uint8_t*>(&v), 4);
        std::printf("%4u", v);
        correct &= v == 4 + 5 * elem_no++;
      }
      std::printf("%s\n", beat.last ? "   <- last" : "");
      if (beat.last) return true;
    }
    return false;
  });

  std::printf("\nElapsed: %llu cycles for 16 scattered elements "
              "(packed, bank-parallel)\n",
              static_cast<unsigned long long>(kernel.now()));
  if (!status.completed || elem_no != 16 || !correct) {
    std::fprintf(stderr, "WRONG: expected elements 4, 9, ..., 79\n");
    return 1;
  }
  return 0;
}
