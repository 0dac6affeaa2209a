#include "netsim/node.hpp"

#include "netsim/link.hpp"

namespace mmtp::netsim {

node::~node() = default;

unsigned node::attach_link(std::unique_ptr<link> l)
{
    links_.push_back(std::move(l));
    return static_cast<unsigned>(links_.size()) - 1;
}

link& node::egress(unsigned port)
{
    return *links_.at(port);
}

const link& node::egress(unsigned port) const
{
    return *links_.at(port);
}

unsigned node::route(wire::ipv4_addr dst) const
{
    auto it = routes_.find(dst);
    return it != routes_.end() ? it->second : no_port;
}

} // namespace mmtp::netsim
