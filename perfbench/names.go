package main

// spec is one reported metric: its name and unit, as BENCHMARK.json lists
// them.
type spec struct{ name, unit string }

// endToEnd lists the untraced run's metrics. Every workload reports every
// one; README.md gives each its definition per workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_tail", "ms"},
	{"client_updates_per_s", "1/s"},
	{"samples_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb_per_round", "MB"},
	{"alloc_mb_per_job", "MB"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0 there.
var perLayer = []spec{
	{"tensor.matmul_ms", "ms"},
	{"tensor.matmul_ta_ms", "ms"},
	{"tensor.matmul_tb_ms", "ms"},
	{"tensor.pool_hit_ratio", "ratio"},
	{"tensor.alloc_mb_per_client", "MB"},
	{"nn.fc1.forward_ms", "ms"},
	{"nn.fc1.backward_ms", "ms"},
	{"nn.relu1.forward_ms", "ms"},
	{"nn.relu1.backward_ms", "ms"},
	{"nn.fc2.forward_ms", "ms"},
	{"nn.fc2.backward_ms", "ms"},
	{"nn.malicious.forward_ms", "ms"},
	{"nn.malicious.backward_ms", "ms"},
	{"nn.malicious.relu.forward_ms", "ms"},
	{"nn.malicious.relu.backward_ms", "ms"},
	{"nn.head.forward_ms", "ms"},
	{"nn.head.backward_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"nn.gradients_ms", "ms"},
	{"fl.sample_us", "us"},
	{"fl.lease_ms", "ms"},
	{"fl.aggregate_us", "us"},
	{"fl.encode_ms", "ms"},
	{"fl.decode_ms", "ms"},
	{"fl.client_ms", "ms"},
	{"fl.client_wait_ms", "ms"},
	{"fl.client_attempted", "count"},
	{"fl.client_failed", "count"},
	{"fl.client_dropped", "count"},
	{"data.partition_ms", "ms"},
	{"data.shard_us", "us"},
	{"data.batch_us", "us"},
	{"defense.batch_ms", "ms"},
	{"defense.grads_ms", "ms"},
	{"attack.calibrate_ms", "ms"},
	{"attack.modify_ms", "ms"},
	{"attack.observe_ms", "ms"},
	{"attack.recon_per_update", "ratio"},
	{"imaging.score_ms", "ms"},
	{"sim.materialize_ms", "ms"},
	{"sim.eval_ms", "ms"},
	{"sim.score_ms", "ms"},
	{"experiments.job_ms", "ms"},
	{"experiments.job_scenario_us", "us"},
	{"experiments.merge_ms", "ms"},
	{"experiments.idle_ms", "ms"},
	{"dist.overhead_ms_per_job", "ms"},
	{"dist.checkpoint_append_ms", "ms"},
	{"dist.relets", "count"},
	{"obs.overhead_pct", "%"},
	{"trace.client_coverage_pct", "%"},
	{"trace.round_coverage_pct", "%"},
}

// zeroLayers is the per-layer result with every metric at 0.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = metric{0, s.unit}
	}
	return m
}
