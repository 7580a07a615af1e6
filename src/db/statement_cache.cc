#include "db/statement_cache.h"

#include <memory>
#include <string>
#include <utility>

#include "db/sql_lexer.h"
#include "db/sql_parser.h"
#include "common/result.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {

Result<PreparedCall> StatementCache::Prepare(const std::string& sql) {
  // Hit path: one fused scan over the text — no token vector, no parse.
  std::vector<Value> params;
  CLOUDDB_ASSIGN_OR_RETURN(std::string fingerprint,
                           FingerprintSql(sql, &params));
  auto it = templates_.find(fingerprint);
  if (it != templates_.end()) {
    ++stats_.hits;
    return PreparedCall{it->second, std::move(params)};
  }
  Result<PreparedCall> parsed = ParseSql(sql);
  if (!parsed.ok() || IsDdl(*parsed->statement)) {
    ++stats_.bypasses;
    return parsed;
  }
  ++stats_.misses;
  templates_.emplace(std::move(fingerprint), parsed->statement);
  return parsed;
}

std::shared_ptr<const CompiledSql> CompileSql(StatementCache* cache,
                                              std::string sql) {
  Result<PreparedCall> call =
      cache != nullptr ? cache->Prepare(sql) : ParseSql(sql);
  if (!call.ok()) {
    return std::make_shared<const CompiledSql>(std::move(sql), call.status());
  }
  return std::make_shared<const CompiledSql>(std::move(sql),
                                             std::move(call).value());
}

}  // namespace clouddb::db
