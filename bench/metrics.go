package main

// how a per-layer metric combines the values its rounds record.
type agg int

const (
	aggMedian agg = iota
	aggSum
	aggMax
)

type layerDef struct {
	unit string
	agg  agg
}

// layerMetrics lists the per-layer metrics (--trace 1), named after the
// package they measure. Every workload reports every one; a layer the
// workload does not use reads 0, which is itself a prediction (README.md
// says which end-to-end metric each should move, and where).
var layerMetrics = map[string]layerDef{
	"id.csuf_ns":       {"ns", aggMedian},
	"id.extend_ns":     {"ns", aggMedian},
	"id.extend_allocs": {"count", aggMedian},

	"table.snapshot_ns":     {"ns", aggMedian},
	"table.snapshot_allocs": {"count", aggMedian},
	"table.snapshot_kb":     {"KiB", aggMedian},
	"table.foreach_ns":      {"ns", aggMedian},
	"table.get_ns":          {"ns", aggMedian},
	"table.fill_ratio":      {"ratio", aggMedian},

	"msg.big_per_op":        {"count", aggMedian},
	"msg.small_per_op":      {"count", aggMedian},
	"msg.joinnoti_per_join": {"count", aggMedian},

	"core.deliver_ns":             {"ns", aggMedian},
	"core.deliver_cprst_ns":       {"ns", aggMedian},
	"core.deliver_cprly_ns":       {"ns", aggMedian},
	"core.deliver_joinnoti_ns":    {"ns", aggMedian},
	"core.deliver_joinnotirly_ns": {"ns", aggMedian},
	"core.deliver_other_ns":       {"ns", aggMedian},
	"core.deliver_allocs":         {"count", aggMedian},
	"core.deliver_per_join":       {"count", aggMedian},
	"core.max_cprst_joinwait":     {"count", aggMax},
	"core.route_ns":               {"ns", aggMedian},

	"sim.events_per_op": {"count", aggMedian},
	"sim.events_per_s":  {"1/s", aggMedian},
	"sim.heap_ns":       {"ns", aggMedian},

	"overlay.build_direct_s":       {"s", aggMedian},
	"overlay.run_ms_p50":           {"ms", aggMedian},
	"overlay.virtual_s_per_wall_s": {"ratio", aggMedian},
	"overlay.dropped_msgs":         {"count", aggSum},

	"netcheck.verify_s": {"s", aggMedian},

	"wire.encode_big_ns":   {"ns", aggMedian},
	"wire.decode_big_ns":   {"ns", aggMedian},
	"wire.encode_small_ns": {"ns", aggMedian},
	"wire.encode_allocs":   {"count", aggMedian},
	"wire.big_frame_bytes": {"B", aggMedian},

	"tcptransport.start_node_ms":         {"ms", aggMedian},
	"tcptransport.join_call_us":          {"us", aggMedian},
	"tcptransport.join_wall_p99_ms":      {"ms", aggMedian},
	"tcptransport.join_internal_mean_ms": {"ms", aggMedian},
	"tcptransport.join_singleton_ms_p50": {"ms", aggMedian},
	"tcptransport.retried_per_op":        {"count", aggMedian},
	"tcptransport.dropped_per_op":        {"count", aggMedian},
	"tcptransport.queue_depth_max":       {"count", aggMax},
	"tcptransport.fds_per_node":          {"count", aggMedian},
	"tcptransport.goroutines_per_node":   {"count", aggMedian},
	"tcptransport.close_s":               {"s", aggMedian},

	"guard.check_ns":        {"ns", aggMedian},
	"guard.rejected_per_op": {"count", aggMedian},

	"liveness.probes_per_node_s":     {"1/s", aggMedian},
	"liveness.detect_virtual_ms_p50": {"ms", aggMedian},
	"liveness.suspects":              {"count", aggSum},
	"liveness.false_declarations":    {"count", aggSum},

	"antientropy.rounds_per_node_s": {"1/s", aggMedian},
	"antientropy.pulled":            {"count", aggSum},
	"sampling.rounds_per_node_s":    {"1/s", aggMedian},

	"dht.hops_mean":      {"count", aggMedian},
	"dht.hops_model_err": {"ratio", aggMedian},
	"dht.publish_us":     {"us", aggMedian},

	"runtime.cpu_ms_per_op":     {"ms", aggMedian},
	"runtime.gc_cycles":         {"count", aggSum},
	"runtime.gc_pause_ms_total": {"ms", aggSum},
	"runtime.heap_peak_mb":      {"MiB", aggMax},
	"runtime.goroutines_peak":   {"count", aggMax},

	"cpu_share.id":           {"ratio", aggMedian},
	"cpu_share.table":        {"ratio", aggMedian},
	"cpu_share.msg":          {"ratio", aggMedian},
	"cpu_share.core":         {"ratio", aggMedian},
	"cpu_share.sim":          {"ratio", aggMedian},
	"cpu_share.overlay":      {"ratio", aggMedian},
	"cpu_share.wire":         {"ratio", aggMedian},
	"cpu_share.tcptransport": {"ratio", aggMedian},
	"cpu_share.guard":        {"ratio", aggMedian},
	"cpu_share.liveness":     {"ratio", aggMedian},
	"cpu_share.antientropy":  {"ratio", aggMedian},
	"cpu_share.sampling":     {"ratio", aggMedian},
	"cpu_share.dht":          {"ratio", aggMedian},
	"cpu_share.obs":          {"ratio", aggMedian},
	"cpu_share.runtime":      {"ratio", aggMedian},
	"cpu_share.other":        {"ratio", aggMedian},

	"bench.trace_overhead_frac": {"ratio", aggMedian},
	"bench.calib_ms":            {"ms", aggMedian},
	"bench.noisy_rounds":        {"count", aggSum},
}
