// Fixture: every registration here is well-formed; the rule must stay
// quiet. Also exercises the shapes the scanner must *not* treat as
// registrations: method definitions (parameter list after the paren),
// wrapped literals, computed names, and longer identifiers.

Counter* MetricRegistry::AddCounter(const std::string& name) {
  return nullptr;
}

void RegisterAll(MetricRegistry& m) {
  m.AddCounter("node.ops.total");
  m.AddGauge("node.queue.depth");
  m.AddProbe(
      "node.relay.backlog", [] { return 0.0; });
  m.AddEwma("node.apply_delay_ms");
  m.AddCounter(StrFormat("node.backend_%d.total", 7));
  MyAddCounter("Not A Metric");
}
