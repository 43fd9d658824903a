// Command perfbench is the repository benchmark: it runs one workload
// for a fixed wall-clock budget, checks every op against a fingerprint,
// and prints every end-to-end metric (untraced run) or every per-layer
// metric (traced run) by name and unit. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//	perfbench --workload wave-100k --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and emitted by every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s"},
	{"events_per_s", "Mevent/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB/op"},
	{"live_heap_mb", "MB"},
	{"coverage", "ratio"},
	{"msgs_per_node_per_op", "msg"},
}

// perLayer are the traced run's metrics. Every workload emits all of
// them; a layer the workload does not reach reads 0. Counts and times
// are per op unless the name says otherwise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.run_s", "s/op"},
		{"sim.events", "event/op"},
		{"sim.engine_self_s", "s/op"},
		{"sim.engine_ns_per_event", "ns"},
		{"sim.send_calls", "call/op"},
		{"sim.send_self_s", "s/op"},
		{"sim.send_ns", "ns"},
		{"sim.timer_calls", "call/op"},
		{"sim.shard_windows", "count/op"},
		{"sim.shard_stalls", "count/op"},
		{"sim.shard_stall_frac", "ratio"},
		{"sim.shard_handoffs", "count/op"},
		{"sim.shard_busy_frac", "ratio"},
		{"sim.shard_imbalance", "ratio"},
		{"sim.latency_p50_s", "s"},
		{"sim.latency_p99_s", "s"},
		{"netem.dropped", "msg/op"},
		{"netem.drop_frac", "ratio"},
	}
	for _, m := range []string{"flood", "adaptive", "dcnet", "relchan"} {
		defs = append(defs,
			metricDef{m + ".handle_calls", "call/op"},
			metricDef{m + ".handle_self_s", "s/op"},
			metricDef{m + ".handle_ns", "ns"})
	}
	defs = append(defs, []metricDef{
		{"relchan.retransmits", "msg/op"},
		{"relchan.nacks", "msg/op"},
		{"relchan.handoffs", "count/op"},
		{"relchan.retx_frac", "ratio"},
		{"dcnet.retransmits", "msg/op"},
		{"core.timer_calls", "call/op"},
		{"core.timer_self_s", "s/op"},
		{"core.broadcast_calls", "call/op"},
		{"workload.offered", "tx/op"},
		{"workload.launched", "tx/op"},
		{"workload.launch_frac", "ratio"},
		{"workload.admission_dropped", "tx/op"},
		{"workload.peak_queue", "tx"},
		{"adversary.tap_calls", "call/op"},
		{"adversary.tap_self_s", "s/op"},
		{"adversary.sightings", "count/op"},
		{"adversary.estimate_s", "s/op"},
		{"adversary.spy_precision", "ratio"},
		{"topology.build_s", "s"},
		{"transport.frames_per_op", "frame/op"},
		{"transport.handle_self_s", "s/op"},
		{"transport.mailbox_wait_us_p50", "us"},
		{"wire.tx_bytes_per_op", "B/op"},
		{"wire.frame_overhead_frac", "ratio"},
		{"runtime.gc_cycles", "count/op"},
		{"runtime.gc_pause_s", "s/op"},
		{"trace.overhead_frac", "ratio"},
	}...)
	for _, m := range pprofModules {
		defs = append(defs, metricDef{"pprof." + m + "_frac", "ratio"})
	}
	return defs
}()

// workloads maps each workload name to its full-size constructor.
var workloads = map[string]func(seed uint64) system{
	"wave-100k":        func(seed uint64) system { return newFloodSim(waveConfig, seed) },
	"spy-sharded-100k": func(seed uint64) system { return newFloodSim(spyConfig, seed) },
	"composed-soak-1k": func(seed uint64) system { return newSoakSim(soakConfig, seed) },
	"live-flood-mem":   func(seed uint64) system { return newLiveFlood(liveConfig, seed) },
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall-clock seconds")
	trace := flag.Int("trace", 0, "1: traced run emitting the per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n",
			strings.Join(names, "|"))
		os.Exit(2)
	}

	host := hostRecord(*seed, *trace == 1)
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)

	w := mk(*seed)
	cfg := runConfig{seconds: *seconds, trace: *trace == 1, setups: setupRepeats}
	if *seed == defaultSeed {
		cfg.expect = pinned[*name]
	}
	rep, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for s, fp := range rep.fingerprints {
		fmt.Fprintf(os.Stderr, "fingerprint %s seed %d slot %d %s\n", *name, *seed, s, fp)
	}
	if *trace == 1 {
		path, err := writeTrace(*name, *seed, host, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]json.RawMessage{}}
	for _, d := range defs {
		v := rep.metrics[d.name]
		fmt.Printf("metric %-34s %16.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name], _ = json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit})
	}
	if rep.failed > 0 {
		for _, e := range rep.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", *name, e)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// hostRecord is printed with every result and stored in every trace.
func hostRecord(seed uint64, traced bool) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"seed":       seed,
		"trace":      traced,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory, without
// running git; a checkout without one reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}
