"""The buffer over every small input (``small_scope``): ``simulate`` equals
the list-scan oracle at every timeout and capacity, and the closed-form
recursion at infinite capacity."""

from arrival_trace import arrival_trace
from list_scan_oracle import fields, simulate as list_scan_simulate
from small_scope import buffer_configs, buffer_traces
from tick_columns import departures
from reseqkit.rational import INF
from reseqkit.resequencer import ResequencerConfig, analytic_departures, simulate

MAX_PACKETS = 4


def test_buffer_matches_list_scan_and_recursion():
    runs = 0
    for arrivals in buffer_traces(MAX_PACKETS):
        trace = arrival_trace(arrivals)
        for timeout, capacity in buffer_configs(arrivals, MAX_PACKETS):
            cfg = ResequencerConfig(timeout, capacity)
            out = simulate(trace, cfg)
            assert fields(out) == list_scan_simulate(arrivals, cfg), (arrivals, cfg)
            if capacity is INF:
                want = analytic_departures({i: t for i, (t, _) in arrivals.items()}, timeout)
                assert departures(out) == want, (arrivals, cfg)
            runs += 1
    assert runs == 33840  # every input was enumerated
