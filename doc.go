// Package vhadoop is a from-scratch Go reproduction of "vHadoop: A Scalable
// Hadoop Virtual Cluster Platform for MapReduce-Based Parallel Machine
// Learning with Performance Consideration" (Ye et al., IEEE CLUSTER 2012
// Workshops).
//
// The repository rebuilds every layer the paper's platform stands on — a
// deterministic discrete-event simulator, a Xen-style virtualization layer
// with pre-copy live migration, an NFS filer, HDFS, a Hadoop-0.20-style
// MapReduce engine, the four Table I benchmarks, the six Mahout-style
// clustering algorithms, the nmon monitor, the MapReduce tuner and the
// Virt-LM migration benchmark — and regenerates every table and figure of
// the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured comparison. cmd/vhadoop
// regenerates each table and figure, bench/vhbench measures host cost, and
// the root-level bench_test.go holds the design-choice ablations:
//
//	go test -run '^$' -bench Ablation .
package vhadoop
