//! Property-based tests (proptest) over the core invariants:
//! mapping optimality and the contention bound, CG coloring validity,
//! max-min fairness of the flow network, all-reduce semantics,
//! quantization error bounds, and partitioner correctness.

use proptest::prelude::*;
use socflow::mapping::{brute_force_min_conflicts, group_sizes, integrity_greedy, GroupId};
use socflow::planning::divide_communication_groups;
use socflow_cluster::{ClusterNet, ClusterSpec, Flow, SocId};
use socflow_collectives::{allreduce_sum, ring_allreduce_sum};
use socflow_data::{dirichlet_partition, iid_partition, label_shard_partition};
use socflow_tensor::quant::{self, QuantFormat, QuantParams};
use socflow_tensor::Tensor;

fn cluster(boards: usize, per: usize) -> ClusterSpec {
    let mut s = ClusterSpec::paper_server();
    s.boards = boards;
    s.socs_per_board = per;
    s
}

/// Deterministic pseudo-random tensor for the kernel properties.
fn lcg_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, [rows, cols])
}

/// Naive triple-loop GEMM reference, accumulating over `p` ascending —
/// the exact floating-point order the tiled kernels promise to preserve.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let n = b.shape().dims()[1];
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: integrity-greedy minimizes the conflict count C —
    /// verified against brute force on random small instances.
    #[test]
    fn mapping_is_optimal(boards in 2usize..4, per in 2usize..5, groups in 2usize..5) {
        let socs = boards * per;
        prop_assume!(groups <= socs);
        let spec = cluster(boards, per);
        let mapping = integrity_greedy(&spec, socs, groups);
        let caps = vec![per; boards];
        let optimal = brute_force_min_conflicts(&caps, &group_sizes(socs, groups));
        prop_assert_eq!(mapping.conflict_count(), optimal);
    }

    /// Theorem 2: every logical group contends with at most two others.
    #[test]
    fn at_most_two_contenders(boards in 2usize..8, per in 2usize..6, groups in 2usize..10) {
        let socs = boards * per;
        prop_assume!(groups <= socs);
        let spec = cluster(boards, per);
        let mapping = integrity_greedy(&spec, socs, groups);
        let edges = mapping.conflict_edges();
        for g in 0..groups {
            let deg = edges.iter().filter(|(a, b)| a.0 == g || b.0 == g).count();
            prop_assert!(deg <= 2, "LG{} has {} contenders", g, deg);
        }
    }

    /// CG division always succeeds on integrity-greedy mappings, yields at
    /// most two CGs, separates every conflicting pair, and covers every
    /// group exactly once.
    #[test]
    fn cg_coloring_valid(boards in 2usize..8, per in 2usize..6, groups in 2usize..10) {
        let socs = boards * per;
        prop_assume!(groups <= socs);
        let spec = cluster(boards, per);
        let mapping = integrity_greedy(&spec, socs, groups);
        let cgs = divide_communication_groups(&mapping).unwrap();
        prop_assert!(cgs.len() <= 2);
        let mut seen = vec![0usize; groups];
        for cg in &cgs.cgs {
            for g in cg {
                seen[g.0] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "every group in exactly one CG");
        for (a, b) in mapping.conflict_edges() {
            prop_assert_ne!(cgs.cg_of(a), cgs.cg_of(b));
        }
    }

    /// Mapping partitions the SoCs: every SoC in exactly one group.
    #[test]
    fn mapping_partitions_socs(boards in 1usize..8, per in 2usize..6, groups in 1usize..10) {
        let socs = boards * per;
        prop_assume!(groups <= socs);
        let spec = cluster(boards, per);
        let mapping = integrity_greedy(&spec, socs, groups);
        let mut all: Vec<usize> = (0..groups)
            .flat_map(|g| mapping.group(GroupId(g)).iter().map(|s| s.0))
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..socs).collect::<Vec<_>>());
    }

    /// Max-min flow simulation: no flow beats its line rate, the makespan
    /// is at least the most-loaded link's serialization time, and adding a
    /// flow never finishes the whole set sooner.
    #[test]
    fn flow_network_sane(
        n_flows in 1usize..10,
        seed in 0u64..1000,
    ) {
        let spec = ClusterSpec::paper_server();
        let net = ClusterNet::new(spec);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let flows: Vec<Flow> = (0..n_flows)
            .map(|_| {
                let src = SocId(next() % 60);
                let mut dst = SocId(next() % 60);
                if dst == src {
                    dst = SocId((dst.0 + 1) % 60);
                }
                Flow::new(src, dst, (next() % 50_000_000 + 1_000_000) as f64)
            })
            .collect();
        let stats = net.transfer(&flows);
        let line = 1e9 / 8.0;
        for (f, &t) in flows.iter().zip(&stats.flow_times) {
            prop_assert!(t >= f.bytes / line - 1e-6, "flow beat line rate");
            prop_assert!(t <= stats.makespan + 1e-9);
        }
        // per-source-link load lower-bounds the makespan
        let mut src_load = std::collections::HashMap::new();
        for f in &flows {
            *src_load.entry(f.src).or_insert(0.0) += f.bytes;
        }
        let min_possible = src_load.values().fold(0.0f64, |m, &b| m.max(b / line));
        prop_assert!(stats.makespan >= min_possible - 1e-6);

        // monotonicity: removing the last flow cannot make things slower
        if flows.len() > 1 {
            let fewer = net.transfer(&flows[..flows.len() - 1]);
            prop_assert!(fewer.makespan <= stats.makespan + 1e-9);
        }
    }

    /// Ring all-reduce computes the same sums as the direct reduction for
    /// arbitrary worker counts and vector lengths.
    #[test]
    fn ring_allreduce_equals_direct(
        workers in 1usize..9,
        len in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut state = seed;
        let mut buffers: Vec<Vec<f32>> = (0..workers)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(99991);
                        ((state >> 40) % 2000) as f32 / 100.0 - 10.0
                    })
                    .collect()
            })
            .collect();
        let mut direct = buffers.clone();
        ring_allreduce_sum(&mut buffers);
        allreduce_sum(&mut direct);
        for (r, d) in buffers.iter().flatten().zip(direct.iter().flatten()) {
            prop_assert!((r - d).abs() < 1e-3 * (1.0 + d.abs()), "{} vs {}", r, d);
        }
    }

    /// The tiled pack-and-tile GEMM kernels agree **bit-for-bit** with the
    /// naive triple loop on arbitrary (awkward, tail-heavy) shapes: per
    /// output element both accumulate strictly sequentially over the shared
    /// dimension, so identical rounding applies. Training numerics are
    /// therefore unchanged by the tiling.
    #[test]
    fn tiled_gemm_matches_naive_bitwise(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        use socflow_tensor::linalg;
        let a = lcg_tensor(m, k, seed);
        let b = lcg_tensor(k, n, seed ^ 0xABCD);
        let expect = naive_matmul(&a, &b);
        let tiled = linalg::matmul(&a, &b);
        prop_assert_eq!(tiled.data(), &expect[..]);
        // Aᵀ·B with A stored (k, m): transpose the stored operand first so
        // the same reference applies.
        let at = linalg::transpose(&a); // (k, m)
        let via_at = linalg::matmul_at_b(&at, &b);
        prop_assert_eq!(via_at.data(), &expect[..]);
        // A·Bᵀ with B stored (n, k)
        let bt = linalg::transpose(&b); // (n, k)
        let via_bt = linalg::matmul_a_bt(&a, &bt);
        prop_assert_eq!(via_bt.data(), &expect[..]);
        // transpose is an involution
        prop_assert_eq!(linalg::transpose(&at), a);
    }

    /// The packed INT8 GEMM — the execution path of the INT8 replica arm —
    /// equals a naive widened-i32 reference **exactly** on arbitrary shapes
    /// and scales: i32 accumulation is associative, so there is no rounding
    /// to order, and the per-tensor scales are applied once at the epilogue
    /// in the same operand order as the reference.
    #[test]
    fn int8_gemm_matches_widened_reference_exactly(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let a = lcg_tensor(m, k, seed).scale(3.0);
        let b = lcg_tensor(k, n, seed ^ 0x1117).scale(0.4);
        let pa = QuantParams::from_tensor(&a);
        let pb = QuantParams::from_tensor(&b);
        let qa: Vec<i8> = a.data().iter().map(|&v| pa.quantize_value(v)).collect();
        let qb: Vec<i8> = b.data().iter().map(|&v| pb.quantize_value(v)).collect();
        let got = quant::quantized_matmul(&qa, pa, &qb, pb, m, k, n);
        let s = pa.scale * pb.scale;
        let mut expect = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += i32::from(qa[i * k + p]) * i32::from(qb[p * n + j]);
                }
                expect[i * n + j] = acc as f32 * s;
            }
        }
        prop_assert_eq!(got.data(), &expect[..]);
    }

    /// The `_into` kernel variants equal their allocating wrappers even
    /// when the destination arrives dirty with a stale shape — the pooled
    /// scratch path recycles buffers across layers of different sizes.
    #[test]
    fn into_variants_match_allocating(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        stale in 1usize..50,
        seed in 0u64..1000,
    ) {
        use socflow_tensor::linalg;
        let a = lcg_tensor(m, k, seed);
        let b = lcg_tensor(k, n, seed ^ 0x5EED);
        let mut out = lcg_tensor(stale, stale + 1, seed ^ 0xF00D); // dirty + wrong shape
        linalg::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(&out, &linalg::matmul(&a, &b));
        let at = linalg::transpose(&a);
        linalg::matmul_at_b_into(&at, &b, &mut out);
        prop_assert_eq!(&out, &linalg::matmul(&a, &b));
        let bt = linalg::transpose(&b);
        linalg::matmul_a_bt_into(&a, &bt, &mut out);
        prop_assert_eq!(&out, &linalg::matmul(&a, &b));
        linalg::transpose_into(&a, &mut out);
        prop_assert_eq!(&out, &at);
        // fused quantize→dequantize equals the allocating fake-quant
        let big = a.scale(30.0);
        for f in [QuantFormat::Int4, QuantFormat::Int8, QuantFormat::Int16, QuantFormat::Fp16] {
            f.fake_quant_into(&big, &mut out);
            prop_assert_eq!(&out, &f.fake_quant(&big), "{:?}", f);
        }
    }

    /// Step-scratch round trips hand back buffers with the requested shape
    /// and (for `zeroed`) zeroed contents, regardless of what shapes were
    /// recycled before — the invariant every layer leans on.
    #[test]
    fn tensor_pool_recycling_is_shape_safe(
        shapes in proptest::collection::vec(0usize..121, 1..8),
    ) {
        use socflow_tensor::pool;
        for &code in &shapes {
            let (r, c) = (code % 11 + 1, code / 11 + 1);
            let t = pool::zeroed([r, c]);
            prop_assert_eq!(t.shape().dims(), &[r, c]);
            prop_assert!(t.data().iter().all(|&v| v == 0.0));
            let mut t = t;
            t.data_mut().iter_mut().for_each(|v| *v = 7.25); // dirty it
            let ptr = t.data().as_ptr();
            pool::recycle(t);
            let u = pool::tensor(&[c, r][..]);
            prop_assert_eq!(u.shape().dims(), &[c, r]);
            prop_assert_eq!(u.data().as_ptr(), ptr, "same length: the parked buffer");
            pool::recycle(u);
            let z = pool::zeroed([r, c]);
            prop_assert!(z.data().iter().all(|&v| v == 0.0), "reused buffer must re-zero");
            pool::recycle(z);
        }
    }

    /// Quantize–dequantize round trips within half a step, and fake-quant
    /// is idempotent.
    #[test]
    fn quantization_error_bounded(vals in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
        let n = vals.len();
        let t = Tensor::from_vec(vals, [n]);
        let p = QuantParams::from_tensor(&t);
        let fq = quant::fake_quant(&t, p);
        let half = quant::max_rounding_error(p);
        for (orig, rec) in t.data().iter().zip(fq.data()) {
            prop_assert!((orig - rec).abs() <= half + 1e-5);
        }
        let fq2 = quant::fake_quant(&fq, p);
        for (a, b) in fq.data().iter().zip(fq2.data()) {
            prop_assert!((a - b).abs() < 1e-6, "fake-quant must be idempotent");
        }
    }

    /// All three partitioners produce disjoint shards covering the dataset.
    #[test]
    fn partitioners_cover(n in 10usize..200, workers in 1usize..12, seed in 0u64..100) {
        prop_assume!(workers <= n);
        let labels: Vec<usize> = (0..n).map(|i| i % 7).collect();
        for shards in [
            iid_partition(n, workers, seed),
            label_shard_partition(&labels, workers, seed),
            dirichlet_partition(&labels, 7, workers, 0.5, seed),
        ] {
            let mut seen = vec![false; n];
            for shard in &shards {
                for &i in shard {
                    prop_assert!(!seen[i], "duplicate index {}", i);
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&b| b), "incomplete cover");
        }
    }

    /// Finer NPU formats never reconstruct worse than coarser ones, for
    /// any input tensor (the premise of the §5 format-sweep extension).
    #[test]
    fn format_fidelity_monotone(vals in proptest::collection::vec(-50.0f32..50.0, 2..64)) {
        let n = vals.len();
        let t = Tensor::from_vec(vals, [n]);
        let err = |f: QuantFormat| f.fake_quant(&t).sub(&t).l2_norm();
        prop_assert!(err(QuantFormat::Int4) >= err(QuantFormat::Int8) - 1e-5);
        prop_assert!(err(QuantFormat::Int8) >= err(QuantFormat::Int16) - 1e-5);
        // all formats are idempotent
        for f in [QuantFormat::Int4, QuantFormat::Int8, QuantFormat::Int16, QuantFormat::Fp16] {
            let once = f.fake_quant(&t);
            let twice = f.fake_quant(&once);
            for (a, b) in once.data().iter().zip(twice.data()) {
                prop_assert!((a - b).abs() < 1e-6, "{:?} not idempotent", f);
            }
        }
    }

    /// Fault plans are consistent: survivors + faulted = all SoCs, events
    /// time-sorted, and the survivor count is non-increasing in time.
    #[test]
    fn fault_plans_consistent(socs in 1usize..64, seed in 0u64..200) {
        use socflow_cluster::faults::FaultPlan;
        let p = FaultPlan::sample(socs, 3600.0, 1800.0, 36_000.0, seed);
        prop_assert!(p.events().windows(2).all(|w| w[0].at <= w[1].at));
        let mut last = socs + 1;
        for t in [0.0, 600.0, 1800.0, 3600.0] {
            let s = p.survivors(socs, t).len();
            let faulted = p.between(0.0, t + 1e-9).len();
            prop_assert_eq!(s + faulted, socs);
            prop_assert!(s <= last);
            last = s;
        }
    }

    /// LR schedules are positive and (warm-up aside) non-increasing.
    #[test]
    fn schedules_well_behaved(lr0 in 0.001f32..1.0, epochs in 2usize..50) {
        use socflow_nn::schedule::{CosineDecay, LrSchedule, StepDecay};
        let step = StepDecay::new(lr0, 0.9, lr0 * 0.05);
        let cos = CosineDecay::new(lr0, lr0 * 0.01, epochs);
        for e in 0..epochs {
            prop_assert!(step.lr_at(e) > 0.0);
            prop_assert!(cos.lr_at(e) > 0.0);
            if e > 0 {
                prop_assert!(step.lr_at(e) <= step.lr_at(e - 1) + 1e-7);
                prop_assert!(cos.lr_at(e) <= cos.lr_at(e - 1) + 1e-6);
            }
        }
    }

    /// DGC conserves gradient mass: transmitted + residual = accumulated
    /// input, for random gradients and sparsity levels.
    #[test]
    fn dgc_conserves_mass(
        len in 4usize..128,
        keep_pct in 1u32..100,
        rounds in 1usize..6,
        seed in 0u64..100,
    ) {
        use socflow_baselines::dgc::DgcCompressor;
        let mut c = DgcCompressor::new(len, keep_pct as f32 / 100.0);
        let mut transmitted = vec![0.0f32; len];
        let mut total = vec![0.0f32; len];
        let mut state = seed;
        for _ in 0..rounds {
            let g: Vec<f32> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(12345);
                    ((state >> 40) % 1000) as f32 / 250.0 - 2.0
                })
                .collect();
            for (t, v) in total.iter_mut().zip(&g) {
                *t += v;
            }
            let s = c.compress(&g);
            for (&i, &v) in s.indices.iter().zip(&s.values) {
                transmitted[i as usize] += v;
            }
        }
        for i in 0..len {
            let rec = transmitted[i] + c.residual()[i];
            prop_assert!((rec - total[i]).abs() < 1e-3, "idx {}: {} vs {}", i, rec, total[i]);
        }
    }

    /// The cosine-similarity α metric is symmetric, bounded and scale
    /// invariant — the properties Eq. 4 relies on.
    #[test]
    fn alpha_metric_properties(
        a in proptest::collection::vec(-10.0f32..10.0, 4..32),
        scale in 0.1f32..10.0,
    ) {
        let n = a.len();
        let t = Tensor::from_vec(a.clone(), [n]);
        let scaled = t.scale(scale);
        let cos = t.cosine_similarity(&scaled);
        if t.l2_norm() > 1e-3 {
            prop_assert!((cos - 1.0).abs() < 1e-3, "scale invariance: {}", cos);
        }
        let u = Tensor::from_vec(a.iter().rev().copied().collect::<Vec<_>>(), [n]);
        let c1 = t.cosine_similarity(&u);
        let c2 = u.cosine_similarity(&t);
        prop_assert!((c1 - c2).abs() < 1e-6, "symmetry");
        prop_assert!((-1.0001..=1.0001).contains(&c1), "bounded");
    }

    /// Gradient bucketing partitions the flat vector exactly for any layer
    /// layout: buckets are contiguous in reverse-topological order, their
    /// lengths telescope to the total parameter count, and no bucket is
    /// undersized unless it is the lone whole-network bucket.
    #[test]
    fn bucketize_partitions_any_layout(
        lens in proptest::collection::vec(0usize..5000, 1..40),
        min_params in 1usize..20_000,
    ) {
        use socflow_nn::{bucketize, GradReady};

        let mut offset = 0;
        let layout: Vec<GradReady> = lens.iter().enumerate().map(|(i, &len)| {
            let g = GradReady { layer: i, offset, len };
            offset += len;
            g
        }).collect();
        let total = offset;
        let buckets = bucketize(&layout, min_params);
        prop_assert!(!buckets.is_empty());
        // output-first: each bucket ends exactly where the previous began
        let mut expected_end = total;
        for b in &buckets {
            prop_assert_eq!(b.offset + b.len, expected_end, "contiguous");
            prop_assert!(b.first_layer <= b.last_layer);
            expected_end = b.offset;
        }
        prop_assert_eq!(expected_end, 0, "buckets must reach offset 0");
        let sum: usize = buckets.iter().map(|b| b.len).sum();
        prop_assert_eq!(sum, total, "bucket bytes = monolithic bytes");
        if buckets.len() > 1 {
            for b in &buckets {
                prop_assert!(b.len >= min_params, "undersized bucket {b:?}");
            }
        }
    }
}

// Timeline-simulation properties price whole epochs (hundreds of fluid
// events each), so they run fewer cases than the algebraic invariants.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On board-aligned topologies (socs = 5·k, groups = k ⇒ every logical
    /// group is one PCB, zero split LGs) the event-driven timeline and the
    /// closed-form Eq. 1 model describe the same schedule, so their epoch
    /// times agree within 1% — for any group count and CPU/NPU batch split.
    #[test]
    fn timeline_agrees_with_analytic_on_zero_split_configs(
        k in 1usize..9,
        cpu_pct in 0u32..101,
    ) {
        use socflow::config::{MethodSpec, TrainJobSpec};
        use socflow::timemodel::TimeModel;
        use socflow_data::DatasetPreset;
        use socflow_nn::models::ModelKind;

        let socs = 5 * k;
        let mut spec = TrainJobSpec::new(
            ModelKind::Vgg11,
            DatasetPreset::Cifar10,
            MethodSpec::Ring,
        );
        spec.socs = socs;
        let tm = TimeModel::new(&spec);
        let cluster = ClusterSpec::for_socs(socs);
        let mapping = integrity_greedy(&cluster, socs, k);
        prop_assume!((0..k).all(|g| !mapping.is_split(GroupId(g))));
        let cgs = divide_communication_groups(&mapping).unwrap();
        let cpu_fraction = cpu_pct as f64 / 100.0;
        let analytic = tm.socflow_epoch(&mapping, &cgs, true, cpu_fraction);
        let sim = tm.socflow_epoch_timeline(&mapping, &cgs, true, cpu_fraction);
        let rel = (sim.cost.time - analytic.time).abs() / analytic.time;
        prop_assert!(
            rel < 0.01,
            "{} groups on {} SoCs: sim {} vs analytic {} (rel {})",
            k, socs, sim.cost.time, analytic.time, rel
        );
    }

    /// Wait-free bucketed overlap never prices an epoch above the serial
    /// or interleaved schedules, on any topology and bucket size: every
    /// bucket's transfer is released no later than the monolithic flush
    /// interleaving would issue.
    #[test]
    fn wait_free_never_loses(
        socs in 4usize..41,
        groups in 1usize..9,
        bucket_mb in 0usize..7,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        use socflow::config::{MethodSpec, TrainJobSpec};
        use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
        use socflow::timemodel::TimeModel;
        use socflow_data::DatasetPreset;
        use socflow_nn::models::{ModelConfig, ModelKind};

        prop_assume!(groups <= socs);
        let mut spec = TrainJobSpec::new(
            ModelKind::Vgg11,
            DatasetPreset::Cifar10,
            MethodSpec::Ring,
        );
        spec.socs = socs;
        let mut tm = TimeModel::new(&spec);
        let mut rng = StdRng::seed_from_u64(0);
        let layout = ModelKind::Vgg11
            .build(ModelConfig::new(3, 32, 10, 0.25), &mut rng)
            .grad_layout();
        tm.set_overlap(512 << bucket_mb, &layout);
        let cluster = ClusterSpec::for_socs(socs);
        let mapping = integrity_greedy(&cluster, socs, groups);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let serial =
            simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::Serial, 1.0);
        let interleaved =
            simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::Interleaved, 1.0);
        let wf =
            simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
        let eps = 1e-6 * serial.cost.time;
        prop_assert!(
            wf.cost.time <= serial.cost.time + eps,
            "{groups} groups / {socs} SoCs: wf {} vs serial {}",
            wf.cost.time, serial.cost.time
        );
        prop_assert!(
            wf.cost.time <= interleaved.cost.time + eps,
            "{groups} groups / {socs} SoCs: wf {} vs interleaved {}",
            wf.cost.time, interleaved.cost.time
        );
    }
}

// Determinism properties run full (tiny) training jobs, so they get far
// fewer cases than the algebraic invariants above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed ⇒ byte-identical run results AND byte-identical telemetry
    /// traces. Everything downstream (run reports, trace files, the
    /// summarizer) relies on runs being exactly reproducible; events are
    /// emitted from the coordinating thread only, so the group threads'
    /// scheduling must not leak into the stream.
    #[test]
    fn runs_and_traces_are_deterministic(
        seed in 0u64..1000,
        groups in 1usize..4,
        epochs in 1usize..3,
    ) {
        use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
        use socflow::engine::{Engine, Workload};
        use socflow::options::RunOptions;
        use socflow_nn::models::ModelKind;
        use socflow_data::DatasetPreset;
        use socflow_telemetry::MemorySink;
        use std::sync::Arc;

        let run = || {
            let cfg = SocFlowConfig::with_groups(groups);
            let mut spec = TrainJobSpec::new(
                ModelKind::LeNet5,
                DatasetPreset::FashionMnist,
                MethodSpec::SocFlow(cfg),
            );
            spec.socs = 8;
            spec.epochs = epochs;
            spec.global_batch = 32;
            spec.seed = seed;
            let workload = Workload::standard(&spec, 96, 8, 0.5);
            let sink = Arc::new(MemorySink::new());
            let result = Engine::new(spec, workload, RunOptions { sink: Some(sink.clone()), ..RunOptions::default() }).run();
            let result_json = serde_json::to_string(&result).unwrap();
            let trace: Vec<String> = sink
                .take()
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect();
            (result_json, trace)
        };
        let (r1, t1) = run();
        let (r2, t2) = run();
        prop_assert_eq!(r1, r2, "RunResult must be byte-identical");
        prop_assert!(!t1.is_empty(), "trace must not be empty");
        prop_assert_eq!(t1, t2, "telemetry traces must be byte-identical");
    }

    /// `--timeline` runs are exactly as deterministic as analytic ones:
    /// same seed ⇒ byte-identical RunResult and byte-identical traces,
    /// including the simulated span digest and link-utilization events.
    #[test]
    fn timeline_traces_are_deterministic(
        seed in 0u64..1000,
        groups in 1usize..4,
    ) {
        use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
        use socflow::engine::{Engine, Workload};
        use socflow::options::{Pricing, RunOptions};
        use socflow_nn::models::ModelKind;
        use socflow_data::DatasetPreset;
        use socflow_telemetry::{Event, MemorySink};
        use std::sync::Arc;

        let run = || {
            let cfg = SocFlowConfig::with_groups(groups);
            let mut spec = TrainJobSpec::new(
                ModelKind::LeNet5,
                DatasetPreset::FashionMnist,
                MethodSpec::SocFlow(cfg),
            );
            spec.socs = 8;
            spec.epochs = 2;
            spec.global_batch = 32;
            spec.seed = seed;
            let workload = Workload::standard(&spec, 96, 8, 0.5);
            let sink = Arc::new(MemorySink::new());
            let result = Engine::new(spec, workload, RunOptions { pricing: Pricing::Timeline, sink: Some(sink.clone()), ..RunOptions::default() })
                .run();
            let result_json = serde_json::to_string(&result).unwrap();
            let events = sink.take();
            let spans = events
                .iter()
                .filter(|e| matches!(e, Event::SpanBegin { .. }))
                .count();
            let trace: Vec<String> = events
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect();
            (result_json, trace, spans)
        };
        let (r1, t1, s1) = run();
        let (r2, t2, _) = run();
        prop_assert!(s1 > 0, "timeline traces must carry span events");
        prop_assert_eq!(r1, r2, "RunResult must be byte-identical");
        prop_assert_eq!(t1, t2, "timeline traces must be byte-identical");
    }

    /// Kill-and-resume determinism: for arbitrary seeds and group counts, a
    /// run killed at its midpoint checkpoint and resumed from disk produces
    /// a RunResult byte-identical to the uninterrupted run. This is the
    /// durable-checkpoint contract — every piece of training state
    /// (weights, momenta, BatchNorm statistics, quant-noise counters, the
    /// fault cursor) must round-trip through the on-disk format.
    #[test]
    fn resume_is_byte_identical(seed in 0u64..1000, groups in 1usize..4) {
        use socflow::checkpoint::{Checkpoint, CheckpointPolicy};
        use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
        use socflow::engine::{Engine, Workload};
        use socflow::options::{Checkpointing, RunOptions};
        use socflow_nn::models::ModelKind;
        use socflow_data::DatasetPreset;

        let spec_of = |epochs: usize| {
            let mut s = TrainJobSpec::new(
                ModelKind::LeNet5,
                DatasetPreset::FashionMnist,
                MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
            );
            s.socs = 8;
            s.epochs = epochs;
            s.global_batch = 32;
            s.seed = seed;
            s
        };
        let full_spec = spec_of(4);
        let workload = Workload::standard(&full_spec, 96, 8, 0.5);
        let full = Engine::new(full_spec, workload.clone(), RunOptions::default()).run();

        let dir = std::env::temp_dir().join(format!("socflow_prop_resume_{seed}_{groups}"));
        std::fs::remove_dir_all(&dir).ok();
        let short = spec_of(2);
        let policy = CheckpointPolicy { every_epochs: Some(2), on_reclaim: true };
        let _ = Engine::new(short, Workload::standard(&short, 96, 8, 0.5), RunOptions { checkpointing: Some(Checkpointing::new(dir.clone(), policy).expect("usable checkpoint dir")), ..RunOptions::default() })
            .run();

        let ckpt = Checkpoint::load(&dir).expect("checkpoint persisted");
        let resumed = Engine::new(full_spec, workload, RunOptions { resume: Some(ckpt), ..RunOptions::default() }).run();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(resumed, full, "resume must continue bit-exactly");
    }
}

/// The model families the autotuner properties sample topologies over,
/// with the grad layout each wait-free bucket plan is shaped by.
fn autotune_spec_and_layout(
    model_ix: usize,
    socs: usize,
    groups: usize,
) -> (socflow::config::TrainJobSpec, Vec<socflow_nn::GradReady>) {
    use rand::{rngs::StdRng, SeedableRng};
    use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
    use socflow_data::DatasetPreset;
    use socflow_nn::models::{ModelConfig, ModelKind};

    let model = [
        ModelKind::Vgg11,
        ModelKind::ResNet18,
        ModelKind::MobileNetV1,
    ][model_ix % 3];
    let mut spec = TrainJobSpec::new(
        model,
        DatasetPreset::Cifar10,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
    );
    spec.socs = socs;
    let layout = model
        .build(
            ModelConfig::new(3, 32, 10, 0.2),
            &mut StdRng::seed_from_u64(0),
        )
        .grad_layout();
    (spec, layout)
}

// Plan-autotuner properties: searches run many timeline simulations per
// case, so they get few cases like the determinism block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tuned plan never loses to the default plan: for arbitrary
    /// cluster sizes, default group counts and model families, the
    /// search's winner is predicted at most as slow as the hand-set
    /// (default-groups, interleaved) plan — `TuneReport::best` falls back
    /// to the default rather than adopt a regression.
    #[test]
    fn autotuned_plan_never_loses_to_default(
        socs in 4usize..33,
        groups in 1usize..9,
        model_ix in 0usize..3,
    ) {
        use socflow::autotune::{autotune, TuneOptions};

        prop_assume!(groups <= socs);
        let (spec, layout) = autotune_spec_and_layout(model_ix, socs, groups);
        let opts = TuneOptions { budget: Some(12), ..Default::default() };
        let report = autotune(&spec, &layout, &opts);
        prop_assert!(
            report.best().predicted_s <= report.default_plan.predicted_s,
            "best {} vs default {}",
            report.best().predicted_s,
            report.default_plan.predicted_s
        );
        prop_assert!(report.speedup() >= 1.0);
        prop_assert!(report.evaluated > 0 && report.evaluated <= 12);
    }

    /// Memoized pricing is exact: for arbitrary candidates the plan-key
    /// memo returns the very bits the uncached pricing computes — the
    /// cache can change cost, never results.
    #[test]
    fn memoized_pricing_equals_uncached_exactly(
        socs in 4usize..25,
        groups in 1usize..9,
        sched_ix in 0usize..3,
        bucket_ix in 0usize..4,
        model_ix in 0usize..3,
    ) {
        use socflow::autotune::{price_plan, price_plan_uncached, PlanCandidate, BUCKET_GRID_KB};
        use socflow::sim::SyncSchedule;

        prop_assume!(groups <= socs);
        let (spec, layout) = autotune_spec_and_layout(model_ix, socs, groups);
        let schedule = [SyncSchedule::Serial, SyncSchedule::Interleaved, SyncSchedule::WaitFree][sched_ix];
        let cand = PlanCandidate {
            groups,
            schedule,
            bucket_kb: matches!(schedule, SyncSchedule::WaitFree)
                .then(|| BUCKET_GRID_KB[bucket_ix]),
            profiled_beta: None,
        };
        let memoized = price_plan(&spec, &layout, &cand);
        let raw = price_plan_uncached(&spec, &layout, &cand);
        prop_assert_eq!(
            memoized.to_bits(),
            raw.to_bits(),
            "memo {} vs uncached {}",
            memoized,
            raw
        );
        // and a second lookup returns the same bits again
        prop_assert_eq!(price_plan(&spec, &layout, &cand).to_bits(), raw.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The search is byte-deterministic across worker-pool sizes: the
    /// full ranked report at an 8-worker pool equals the 1-worker report
    /// bit-for-bit — candidate evaluation fans out over the pool but is
    /// reduced in fixed candidate order, so the incumbent (and with it
    /// every pruning decision) never depends on thread scheduling. CI
    /// additionally `cmp`s `tune --json` output across SOCFLOW_THREADS
    /// values cross-process, where the plan memo starts cold each time.
    #[test]
    fn autotune_report_identical_across_pool_sizes(
        socs in 4usize..25,
        groups in 1usize..9,
        model_ix in 0usize..3,
        budget in 4usize..20,
    ) {
        use socflow::autotune::{autotune, TuneOptions};
        use socflow_tensor::runtime;

        prop_assume!(groups <= socs);
        let (spec, layout) = autotune_spec_and_layout(model_ix, socs, groups);
        let opts = TuneOptions { budget: Some(budget), ..Default::default() };
        runtime::set_threads(8);
        let wide = autotune(&spec, &layout, &opts);
        runtime::set_threads(1);
        let narrow = autotune(&spec, &layout, &opts);
        runtime::set_threads(8);
        // all but `timeline`: the second search is answered by the memo
        prop_assert_eq!(&wide.ranked, &narrow.ranked);
        prop_assert_eq!(wide.default_plan, narrow.default_plan);
        prop_assert_eq!(
            (wide.evaluated, wide.pruned, wide.skipped),
            (narrow.evaluated, narrow.pruned, narrow.skipped)
        );
        for (a, b) in wide.ranked.iter().zip(&narrow.ranked) {
            prop_assert_eq!(a.predicted_s.to_bits(), b.predicted_s.to_bits());
            prop_assert_eq!(a.bound_s.to_bits(), b.bound_s.to_bits());
        }
        prop_assert_eq!(
            wide.default_plan.predicted_s.to_bits(),
            narrow.default_plan.predicted_s.to_bits()
        );
    }
}
