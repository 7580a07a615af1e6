#include "client/connection_pool.h"
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

ConnectionPool::ConnectionPool(net::Network* network, net::NodeId client_node,
                               repl::DbNode* target,
                               const ConnectionPoolOptions& options)
    : network_(network),
      client_node_(client_node),
      target_(target),
      options_(options) {
  assert(options.max_active >= 1);
}

void ConnectionPool::Borrow(Ready ready) {
  ++borrows_;
  if (!idle_.empty()) {
    Connection* conn = idle_.front();
    idle_.pop_front();
    ready(conn);
    return;
  }
  if (total_created_ < options_.max_active) {
    CreateConnection(std::move(ready));
    return;
  }
  waiters_.push_back(std::move(ready));
}

void ConnectionPool::Return(Connection* connection) {
  assert(!connection->busy());
  if (!waiters_.empty()) {
    Ready next = std::move(waiters_.front());
    waiters_.pop_front();
    next(connection);
    return;
  }
  idle_.push_back(connection);
}

void ConnectionPool::Execute(std::shared_ptr<const db::CompiledSql> compiled,
                             SimDuration cpu_cost, Connection::Callback done) {
  Borrow([this, compiled = std::move(compiled), cpu_cost,
          done = std::move(done)](Connection* conn) mutable {
    conn->Execute(std::move(compiled), cpu_cost,
                  [this, conn,
                   done = std::move(done)](Result<db::ExecResult> result) mutable {
                    Return(conn);
                    done(std::move(result));
                  });
  });
}

void ConnectionPool::CreateConnection(Ready ready) {
  ++total_created_;  // reserve the slot before the async handshake
  ++handshakes_;
  // The connection handshake costs one network round trip.
  network_->Ping(client_node_, target_->node_id(),
                 [this, ready = std::move(ready)](SimDuration) mutable {
                   all_.push_back(std::make_unique<Connection>(
                       network_, client_node_, target_, next_conn_id_++));
                   ready(all_.back().get());
                 });
}

}  // namespace clouddb::client
