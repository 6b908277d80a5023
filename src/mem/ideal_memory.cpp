#include "mem/ideal_memory.hpp"

namespace axipack::mem {

IdealMemory::IdealMemory(sim::Kernel& k, BackingStore& store,
                         const MemoryConfig& cfg)
    : store_(store) {
  ports_.reserve(cfg.num_ports);
  for (unsigned i = 0; i < cfg.num_ports; ++i) {
    ports_.push_back(std::make_unique<WordPort>(k, cfg.req_depth,
                                                cfg.resp_depth, cfg.latency));
  }
  k.add(*this);
  for (auto& port : ports_) k.subscribe(*this, port->req);
}

void IdealMemory::tick() {
  for (auto& port : ports_) {
    if (!port->req.can_pop() || !port->resp.can_push()) continue;
    WordReq req = port->req.pop();
    WordResp resp;
    resp.tag = req.tag;
    resp.was_write = req.write;
    if (req.write) {
      store_.write_word(req.addr, req.wdata, req.wstrb);
    } else {
      resp.rdata = store_.read_u32(req.addr);
    }
    port->resp.push(resp);
  }
}

}  // namespace axipack::mem
