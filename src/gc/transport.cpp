#include "core/context.hpp"
#include "gc/transport.hpp"

namespace samoa::gc {

Transport::Transport(const GcOptions& opts, const GcEvents&, net::SimNetwork& net, SiteId self)
    : GcMicroprotocol("transport", opts), net_(net), self_(self) {
  send_ = &register_handler("send", [this](Context&, const Message& m) {
    auto lock = guard();
    const auto& req = m.as<TransportSend>();
    sent_.add();
    if (options().serialize_wire) {
      net_.send(self_, req.to, Message::of(net::encode_wire(self_, req.wire)));
    } else {
      net_.send(self_, req.to, Message::of(FromWire{self_, req.wire}));
    }
  });
}

}  // namespace samoa::gc
