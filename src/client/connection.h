#ifndef CLOUDDB_CLIENT_CONNECTION_H_
#define CLOUDDB_CLIENT_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/result.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/db_node.h"

namespace clouddb::client {

/// A client-side connection from an application instance to one database
/// node. Carries one request at a time (like a real driver connection):
/// request and response each traverse the network, and the statement is
/// charged to the target node's CPU in between.
class Connection {
 public:
  using Callback = std::function<void(Result<db::ExecResult>)>;

  Connection(net::Network* network, net::NodeId client_node,
             repl::DbNode* target, int64_t id);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends the compiled statement to the target, which executes it as
  /// compiled; the request is charged its text's bytes. `cpu_cost` < 0
  /// uses the node's cost model default. Must not be called while
  /// `busy()`.
  void Execute(std::shared_ptr<const db::CompiledSql> compiled,
               SimDuration cpu_cost, Callback done);

  bool busy() const { return busy_; }
  repl::DbNode* target() { return target_; }
  int64_t id() const { return id_; }
  int64_t requests_completed() const { return requests_completed_; }

 private:
  net::Network* network_;
  net::NodeId client_node_;
  repl::DbNode* target_;
  int64_t id_;
  bool busy_ = false;
  int64_t requests_completed_ = 0;
};

}  // namespace clouddb::client

#endif  // CLOUDDB_CLIENT_CONNECTION_H_
