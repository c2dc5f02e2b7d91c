package main

import (
	"fmt"

	"repro/internal/gen"
)

// opKind is what one timed operation of a pass does.
type opKind uint8

const (
	opQuery  opKind = iota // Querier.Query, in process
	opServe                // POST /query through the server's handler
	opAdd                  // Mutable.AddGraph
	opRemove               // Mutable.RemoveGraph
)

// spec fixes one workload: the generator regime, the engine shape and the
// op list of a pass. The names are referred to by later issues; the sizes
// are chosen so that one layer dominates (see README.md) and a pass of
// >=1000 timed queries lasts about a second on a 2-vCPU box.
type spec struct {
	name string
	why  string
	data gen.SynthConfig
	// queries distinct queries of queryEdges edges are extracted from the
	// dataset by random walks (workload.Generate).
	queries    int
	queryEdges int
	method     string // registry name of the indexing method
	storage    string // how a restored index is held: heap or mmap
	shards     int    // 0 = flat engine.Open
	serve      bool   // requests go through server.Server's handler
	// opsPerPass is the length of one pass's op list; 0 means every distinct
	// query once, in order.
	opsPerPass int
	// mutateEvery, when >0, makes every mutateEvery-th op of a block an
	// AddGraph and the block's last op a RemoveGraph of an earlier add.
	mutateEvery int
	cacheSize   int
	isSmoke     bool
}

const zipfS = 1.1

var specs = []spec{
	{
		name:    "verify_heavy",
		why:     "420 graphs x 60 nodes, density 0.05, 3 labels; 1000 6-edge queries on flat heap ggsx: ~310 candidates and ~240 answers per query, >=90% of the time in VF2 verification",
		data:    gen.SynthConfig{NumGraphs: 420, MeanNodes: 60, MeanDensity: 0.05, NumLabels: 3},
		queries: 1000, queryEdges: 6, method: "ggsx", storage: "heap",
	},
	{
		name:    "filter_heavy",
		why:     "1000 graphs x 40 nodes, density 0.06, 10 labels; 3000 16-edge queries on flat mmap grapes: 1 candidate per query, >=90% of the time in path enumeration, trie walk, posting intersection",
		data:    gen.SynthConfig{NumGraphs: 1000, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 10},
		queries: 3000, queryEdges: 16, method: "grapes", storage: "mmap",
	},
	{
		name:    "serve_zipf",
		why:     "2000 graphs x 40 nodes, 0.06, 4 labels; 6000 POST /query per pass, Zipf(1.1) permuted repeats of 2000 8-edge queries, 256-entry cache: hits cost server+dfscode+JSON, misses add the engine",
		data:    gen.SynthConfig{NumGraphs: 2000, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4},
		queries: 2000, queryEdges: 8, method: "ggsx", storage: "heap", serve: true, opsPerPass: 6000, cacheSize: 256,
	},
	{
		name:    "mutate_mix",
		why:     "800 graphs x 40 nodes, 0.06, 4 labels; 1120 ops per pass on a durable 4-shard ggsx: 90% 8-edge queries, 5% AddGraph, 5% RemoveGraph; splice, tombstones, shard re-persist, k-way merge",
		data:    gen.SynthConfig{NumGraphs: 800, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4},
		queries: 1000, queryEdges: 8, method: "ggsx", storage: "heap", shards: 4, opsPerPass: 1120, mutateEvery: 10,
	},
}

// engineSpec is the engine spec string; storage is a runtime parameter, so
// one saved index restores under either value.
func (s spec) engineSpec() string { return s.method + ":storage=" + s.storage }

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload for the tier-1 test: the same code paths on
// <=150 graphs and a tenth of the ops.
func (s spec) smoke() spec {
	s.isSmoke = true
	s.data.NumGraphs = min(s.data.NumGraphs/8, 150)
	s.queries = max(s.queries/10, 100)
	if s.opsPerPass > 0 {
		s.opsPerPass /= 10
	}
	if s.cacheSize > 0 {
		s.cacheSize = max(s.cacheSize/10, 8)
	}
	return s
}

// n picks a size of the measurement protocol: the full one, or the one the
// smoke test can afford.
func (s spec) n(full, smoke int) int {
	if s.isSmoke {
		return smoke
	}
	return full
}

// metricDef names one reported metric. The tables below are the program's
// side of BENCHMARK.json; smoke_test.go checks the two agree.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"first_answer_p50_ms", "ms"},
	{"mutate_p50_ms", "ms"},
	{"allocs_per_query", "count"},
	{"bytes_per_query", "B"},
	{"reopen_ms", "ms"},
	{"index_mb", "MB"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"gen.dataset_s", "s"},
	{"workload.querygen_s", "s"},
	{"ggsx.build_s", "s"},
	{"ggsx.filter_us_per_query", "us"},
	{"ggsx.candidates_per_query", "count"},
	{"ggsx.false_positive_ratio", "ratio"},
	{"ggsx.size_mb", "MB"},
	{"ggsx.incr_add_us", "us"},
	{"ggsx.incr_remove_us", "us"},
	{"grapes.build_s", "s"},
	{"grapes.filter_us_per_query", "us"},
	{"grapes.candidates_per_query", "count"},
	{"grapes.false_positive_ratio", "ratio"},
	{"grapes.size_mb", "MB"},
	{"features.visit_paths_us_per_query", "us"},
	{"subiso.exists_us_per_call", "us"},
	{"subiso.calls_per_query", "count"},
	{"subiso.hit_ratio", "ratio"},
	{"core.newplan_us_per_query", "us"},
	{"core.verify_us_per_query", "us"},
	{"core.query_self_us", "us"},
	{"core.produced_per_query", "count"},
	{"core.verified_per_query", "count"},
	{"core.verified_before_first_answer", "count"},
	{"graph.dataset_add_us", "us"},
	{"graph.dataset_remove_us", "us"},
	{"graph.filter_live_ns_per_id", "ns"},
	{"diskfmt.encode_ns_per_id", "ns"},
	{"diskfmt.decode_ns_per_id", "ns"},
	{"diskfmt.intersect_ns_per_id", "ns"},
	{"diskfmt.union_ns_per_id", "ns"},
	{"diskfmt.contains_ns", "ns"},
	{"diskfmt.bytes_per_id", "B"},
	{"diskfmt.open_mapped_us", "us"},
	{"diskfmt.section_verify_ms", "ms"},
	{"engine.build_s", "s"},
	{"engine.query_self_us", "us"},
	{"engine.save_ms", "ms"},
	{"engine.open_restore_heap_ms", "ms"},
	{"engine.open_restore_mmap_ms", "ms"},
	{"engine.first_query_after_open_us", "us"},
	{"engine.sharded_merge_self_us", "us"},
	{"engine.add_ms", "ms"},
	{"engine.remove_ms", "ms"},
	{"engine.add_nopersist_ms", "ms"},
	{"engine.persist_ms", "ms"},
	{"dfscode.minimum_us_per_query", "us"},
	{"canon.graphkey_us_per_query", "us"},
	{"server.to_graph_us", "us"},
	{"server.query_key_us", "us"},
	{"server.cached_hit_us", "us"},
	{"server.cached_miss_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions_per_pass", "count"},
	{"server.handler_self_us", "us"},
	{"server.encode_us_per_response", "us"},
	{"server.stream_first_line_us", "us"},
	{"server.rejected_total", "count"},
	{"server.conc2_qps_ratio", "ratio"},
	{"obs.span_ns", "ns"},
	{"obs.span_noop_ns", "ns"},
	{"obs.histogram_observe_ns", "ns"},
	{"obs.traced_query_overhead_ratio", "ratio"},
	{"proc.rss_peak_mb", "MB"},
	{"proc.gc_cycles_per_pass", "count"},
	{"proc.gc_pause_total_ms", "ms"},
	{"bench.calibration_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"share.subiso_pct", "%"},
	{"share.filter_pct", "%"},
	{"share.serving_pct", "%"},
	{"share.mutation_pct", "%"},
}
