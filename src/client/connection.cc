#include "client/connection.h"
#include "common/result.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/db_node.h"

#include <cassert>
#include <utility>

namespace clouddb::client {

Connection::Connection(net::Network* network, net::NodeId client_node,
                       repl::DbNode* target, int64_t id)
    : network_(network),
      client_node_(client_node),
      target_(target),
      id_(id) {}

void Connection::Execute(std::shared_ptr<const db::CompiledSql> compiled,
                         SimDuration cpu_cost, Callback done) {
  assert(!busy_);
  busy_ = true;
  int64_t request_bytes = static_cast<int64_t>(compiled->text().size()) + 64;
  network_->Send(
      client_node_, target_->node_id(), request_bytes,
      [this, compiled = std::move(compiled), cpu_cost,
       done = std::move(done)]() mutable {
        target_->Submit(
            std::move(compiled), cpu_cost,
            [this, done = std::move(done)](
                Result<db::ExecResult> result) mutable {
              int64_t response_bytes =
                  result.ok()
                      ? static_cast<int64_t>(result->rows.size()) * 64 + 64
                      : 64;
              network_->Send(target_->node_id(), client_node_, response_bytes,
                             [this, done = std::move(done),
                              result = std::move(result)]() mutable {
                               busy_ = false;
                               ++requests_completed_;
                               done(std::move(result));
                             });
            });
      });
}

}  // namespace clouddb::client
