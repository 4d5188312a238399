type t = {
  registry : Metrics.t;
  tsdb : Tsdb.t;
  alerts : Alerts.t;
  planstats : Planstats.t;
}

let create tsdb =
  let registry = Tsdb.registry tsdb in
  {
    registry;
    tsdb;
    alerts = Alerts.create tsdb;
    planstats = Planstats.create ~registry ();
  }
