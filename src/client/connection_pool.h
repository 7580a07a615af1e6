#ifndef CLOUDDB_CLIENT_CONNECTION_POOL_H_
#define CLOUDDB_CLIENT_CONNECTION_POOL_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "client/connection.h"
#include "common/time_types.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/db_node.h"

namespace clouddb::client {

/// Pool behaviour knobs (a subset of Apache DBCP's).
struct ConnectionPoolOptions {
  /// Maximum simultaneously borrowed + idle connections.
  int max_active = 64;
  /// Borrowers beyond max_active wait FIFO (DBCP's WHEN_EXHAUSTED_BLOCK).
  /// There is no wait timeout: the simulated workload always returns
  /// connections.
};

/// DBCP-style connection pool to one database node. The paper adds exactly
/// this component so that "users ... reuse the connections that have been
/// released by other users ... to save the overhead of creating a new
/// connection for each operation"; here the saved overhead is the connection
/// handshake (one network round trip).
class ConnectionPool {
 public:
  using Ready = std::function<void(Connection*)>;

  ConnectionPool(net::Network* network, net::NodeId client_node,
                 repl::DbNode* target, const ConnectionPoolOptions& options);

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// Obtains a connection: immediately if one is idle, after a handshake
  /// round trip if the pool can grow, otherwise when another borrower
  /// returns one.
  void Borrow(Ready ready);

  /// Returns a borrowed connection (must be idle, i.e. not mid-request).
  void Return(Connection* connection);

  /// Convenience: borrow, execute, and return around one compiled
  /// statement (a borrower waiting for a connection holds it meanwhile).
  void Execute(std::shared_ptr<const db::CompiledSql> compiled,
               SimDuration cpu_cost, Connection::Callback done);

  repl::DbNode* target() { return target_; }
  int total_connections() const { return total_created_; }
  size_t idle_count() const { return idle_.size(); }
  size_t waiting_borrowers() const { return waiters_.size(); }
  int64_t handshakes_performed() const { return handshakes_; }
  int64_t borrows_served() const { return borrows_; }

 private:
  void CreateConnection(Ready ready);

  net::Network* network_;
  net::NodeId client_node_;
  repl::DbNode* target_;
  ConnectionPoolOptions options_;
  std::vector<std::unique_ptr<Connection>> all_;
  std::deque<Connection*> idle_;
  std::deque<Ready> waiters_;
  int total_created_ = 0;
  int64_t next_conn_id_ = 1;
  int64_t handshakes_ = 0;
  int64_t borrows_ = 0;
};

}  // namespace clouddb::client

#endif  // CLOUDDB_CLIENT_CONNECTION_POOL_H_
