//! One function per paper artefact. See DESIGN.md §4 for the index.

use crate::{
    disk_model, em_permute_report, em_sort_report, em_sort_run, em_transpose_report,
    layout_ablation_ops, run_seq_em, sweep_sizes, Table,
};

use cgmio_algos::geometry::{
    rects::decode_area, CgmAllNearestNeighbors, CgmConvexHull, CgmDominance, CgmIntervalStab,
    CgmLowerEnvelope, CgmMaxima3d, CgmPointLocation, CgmTriangulate,
};
use cgmio_algos::graphs::{
    contraction::expr_states, CgmBatchedLca, CgmConnectivity, CgmEulerTour, CgmExprEval,
    CgmListRank,
};
use cgmio_algos::CgmSort;
use cgmio_baselines::{
    external_merge_sort, naive_permutation, paged_merge_sort, sort_based_permutation,
};
use cgmio_core::{measure_requirements, params, EmConfig, EmRunReport, ParamCheck, SeqEmRunner};
use cgmio_data as data;
use cgmio_obs::json::Value;
use cgmio_pdm::DiskGeometry;
use cgmio_routing::{bin_sizes, theorem1_bounds, Balanced};

/// Figure 1: bin sizes produced by BalancedRouting step 1, against the
/// Theorem 1 bounds, for a skewed and a random message matrix.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "fig1_balanced_bins",
        &["case", "v", "total", "min_bin", "max_bin", "thm1_lo", "thm1_hi"],
    );
    for v in [8usize, 16, 32] {
        let cases: Vec<(&str, Vec<usize>)> = vec![
            ("all_to_one", {
                let mut l = vec![0; v];
                l[0] = 64 * v;
                l
            }),
            ("uniform", vec![64; v]),
            ("ramp", (0..v).map(|j| 8 * j).collect()),
        ];
        for (name, lens) in cases {
            let total: usize = lens.iter().sum();
            let bins = bin_sizes(0, v, &lens);
            let b = theorem1_bounds(total, v);
            t.row(vec![
                name.into(),
                v.to_string(),
                total.to_string(),
                bins.iter().min().unwrap().to_string(),
                bins.iter().max().unwrap().to_string(),
                format!("{:.1}", b.v_times_min as f64 / v as f64),
                format!("{:.1}", b.v_times_max as f64 / v as f64),
            ]);
        }
    }
    t
}

/// Figure 2: staggered vs naive message-matrix layout — parallel write
/// operations and the achieved disk parallelism.
pub fn fig2() -> Table {
    let mut t = Table::new(
        "fig2_staggered_layout",
        &["v", "D", "blocks_per_msg", "staggered_ops", "naive_ops", "speedup"],
    );
    for (v, d, bpm) in [(8usize, 4usize, 2u64), (16, 4, 1), (16, 8, 3), (32, 8, 2)] {
        let (stag, naive) = layout_ablation_ops(v, d, bpm);
        t.row(vec![
            v.to_string(),
            d.to_string(),
            bpm.to_string(),
            stag.to_string(),
            naive.to_string(),
            format!("{:.2}", naive as f64 / stag as f64),
        ]);
    }
    t
}

/// Figure 3: sorting wall-time (modelled I/O time) — CGM over demand
/// paging vs the EM-CGM simulation.
pub fn fig3() -> Table {
    let mut t = Table::new(
        "fig3_sort_vm_vs_em",
        &["n", "em_ops", "em_ms", "vm_transfers", "vm_ms", "vm_over_em"],
    );
    let model = disk_model();
    let (v, d, bb) = (16usize, 1usize, 4096usize);
    // VM baseline memory: 64 frames of 4 KiB = 256 KiB — the crossover
    // happens once the two sort regions exceed this.
    let (page, frames) = (4096usize, 64usize);
    for n in sweep_sizes() {
        let em = em_sort_report(n, v, d, bb);
        let em_us = em.io_time_us(&model);
        let keys = data::uniform_u64(n, 42);
        let (_, vm) = paged_merge_sort(&keys, page, frames);
        let vm_us = vm.io_time_us(&model);
        t.row(vec![
            n.to_string(),
            em.breakdown.algorithm_ops().to_string(),
            format!("{:.1}", em_us / 1e3),
            vm.stats.transfers().to_string(),
            format!("{:.1}", vm_us / 1e3),
            format!("{:.2}", vm_us / em_us.max(1e-9)),
        ]);
    }
    t
}

/// Figure 4: EM-CGM sort with D = 1, 2, 4 disks per processor.
pub fn fig4() -> Table {
    let mut t = Table::new("fig4_sort_multidisk", &["n", "D", "ops", "io_ms", "ops_vs_d1"]);
    let model = disk_model();
    let (v, bb) = (16usize, 4096usize);
    for n in sweep_sizes() {
        let base_ops = em_sort_report(n, v, 1, bb).breakdown.algorithm_ops();
        for d in [1usize, 2, 4] {
            let rep = em_sort_report(n, v, d, bb);
            t.row(vec![
                n.to_string(),
                d.to_string(),
                rep.breakdown.algorithm_ops().to_string(),
                format!("{:.1}", rep.io_time_us(&model) / 1e3),
                format!("{:.2}", rep.breakdown.algorithm_ops() as f64 / base_ops as f64),
            ]);
        }
    }
    t
}

/// Figure 5, Group A: sorting / permutation / transpose — measured EM
/// I/O against the `O(N/(pDB))` bound and the classical baselines, with
/// the paper's parameter conditions ([`ParamCheck`]) of each run.
pub fn fig5a() -> Table {
    let mut t = Table::new(
        "fig5a_fundamental",
        &[
            "problem",
            "n",
            "em_ops",
            "ops_per_NDB",
            "baseline",
            "baseline_ops",
            "base_per_NDB",
            "n_ge_vDB",
            "lemma2",
            "B_le_N_over_v2",
            "M_ge_N_over_v",
        ],
    );
    let (v, d, bb) = (16usize, 2usize, 2048usize);
    let per_block = bb / 8;
    let geom = DiskGeometry::new(d, bb);
    for n in sweep_sizes() {
        let ndb = (n as f64) / (d as f64 * per_block as f64);
        let mut row = |problem: &str, (chk, em): &(ParamCheck, EmRunReport), base: &str, ops| {
            let per = |ops: u64| format!("{:.2}", ops as f64 / ndb);
            let em_ops = em.breakdown.algorithm_ops();
            let (base_ops, base_per) = match ops {
                Some(ops) => (u64::to_string(&ops), per(ops)),
                None => ("-".into(), "-".into()),
            };
            let flags = [chk.n_ge_vdb, chk.lemma2, chk.b_le_n_over_v2, chk.m_ge_n_over_v];
            let mut cells = vec![problem.into(), n.to_string(), em_ops.to_string(), per(em_ops)];
            cells.extend([base.into(), base_ops, base_per]);
            cells.extend(flags.map(|f| (f as u8).to_string()));
            t.row(cells);
        };
        // sorting vs external merge sort (M = N/v items)
        let em = em_sort_run(n, v, d, bb);
        let keys = data::uniform_u64(n, 42);
        let (_, ms) = external_merge_sort(geom, (n / v).max(2 * per_block), &keys);
        row("sort", &em, "merge_sort", Some(ms.io.total_ops()));
        // permutation vs naive and sort-based
        let em = em_permute_report(n, v, d, bb);
        let vals = data::uniform_u64(n, 7);
        let perm = data::random_permutation(n, 8);
        let (_, np) = naive_permutation(geom, &vals, &perm);
        let (_, sp) = sort_based_permutation(geom, (n / v).max(2 * per_block), &vals, &perm);
        row("permute", &em, "naive", Some(np.total_ops()));
        row("permute", &em, "sort_based", Some(sp.total_ops()));
        // transpose
        let k = 1usize << 7;
        row("transpose", &em_transpose_report(k, n / k, v, d, bb), "-", None);
    }
    t
}

/// Figure 5, Group A continued: scalability in `p` — per-processor I/O
/// of the parallel EM engine.
pub fn fig5a_scaling() -> Table {
    let mut t = Table::new("fig5a_scaling_p", &["n", "p", "ops_per_proc", "vs_p1", "cross_items"]);
    let (v, d, bb) = (16usize, 2usize, 2048usize);
    let n = 1 << 16;
    let keys = data::uniform_u64(n, 42);
    let mk = || {
        data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect::<Vec<_>>()
    };
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, mk()).unwrap();
    let mut base = 0.0f64;
    for p in [1usize, 2, 4, 8] {
        let cfg = EmConfig::from_requirements(v, p, d, bb, &req);
        let (_, rep) = cgmio_core::ParEmRunner::new(cfg).run(&prog, mk()).unwrap();
        let opp = rep.io_ops_per_proc();
        if p == 1 {
            base = opp;
        }
        t.row(vec![
            n.to_string(),
            p.to_string(),
            format!("{opp:.0}"),
            format!("{:.2}", opp / base),
            rep.cross_thread_items.to_string(),
        ]);
    }
    t
}

fn geometry_row(
    t: &mut Table,
    problem: &str,
    n: usize,
    rep: &cgmio_core::EmRunReport,
    d: usize,
    bb: usize,
) {
    let per_block = bb / 16; // points are 16 bytes
    let ndb = n as f64 / (d as f64 * per_block as f64);
    let nlogndb = ndb * (n as f64).log2();
    t.row(vec![
        problem.into(),
        n.to_string(),
        rep.breakdown.algorithm_ops().to_string(),
        format!("{:.2}", rep.breakdown.algorithm_ops() as f64 / ndb),
        format!("{:.3}", rep.breakdown.algorithm_ops() as f64 / nlogndb),
        format!("{:.2}", rep.io.parallel_efficiency()),
    ]);
}

/// Figure 5, Group B: geometry/GIS — measured EM I/O per problem with
/// the `N/DB` and `(N log N)/DB` normalisations of the paper's table.
pub fn fig5b() -> Table {
    let mut t = Table::new(
        "fig5b_geometry",
        &["problem", "n", "em_ops", "ops_per_NDB", "ops_per_NlogNDB", "parallel_eff"],
    );
    let (v, d, bb) = (8usize, 2usize, 2048usize);
    for n in [1usize << 12, 1 << 14] {
        // convex hull
        let pts = data::random_points(n, 1_000_000, 1);
        let mk = || {
            data::block_split(pts.clone(), v)
                .into_iter()
                .map(|b| (b, Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmConvexHull, mk, v, d, bb);
        geometry_row(&mut t, "convex_hull", n, &rep, d, bb);

        // 3D maxima
        let pts3: Vec<(u64, (i64, i64, i64))> = data::uniform_u64(3 * n, 2)
            .chunks(3)
            .enumerate()
            .map(|(i, c)| {
                (i as u64, ((c[0] % 65536) as i64, (c[1] % 65536) as i64, (c[2] % 65536) as i64))
            })
            .collect();
        let mk = || {
            data::block_split(pts3.clone(), v)
                .into_iter()
                .map(|b| (b, Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmMaxima3d, mk, v, d, bb);
        geometry_row(&mut t, "3d_maxima", n, &rep, d, bb);

        // all nearest neighbours
        let pts = data::random_points(n, 1_000_000, 3);
        let idx: Vec<(u64, (i64, i64))> =
            pts.iter().copied().enumerate().map(|(i, p)| (i as u64, p)).collect();
        let mk = || {
            data::block_split(idx.clone(), v)
                .into_iter()
                .map(|b| ((b, Vec::new()), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmAllNearestNeighbors, mk, v, d, bb);
        geometry_row(&mut t, "all_nn", n, &rep, d, bb);

        // union of rectangles
        let rects: Vec<[i64; 4]> = data::random_rects(n, 100_000, 4)
            .into_iter()
            .map(|r| [r.x1, r.y1, r.x2, r.y2])
            .collect();
        let mk = || {
            data::block_split(rects.clone(), v)
                .into_iter()
                .map(|b| (b, Vec::new()))
                .collect::<Vec<_>>()
        };
        let (fin, rep) = run_seq_em(&CgmUnionAreaWrap, mk, v, d, bb);
        assert!(decode_area(&fin[0].1) > 0);
        geometry_row(&mut t, "union_area", n, &rep, d, bb);

        // dominance counting
        let pts = data::random_points(n, 100_000, 5);
        let rows: Vec<[i64; 4]> =
            pts.iter().enumerate().map(|(i, &(x, y))| [i as i64, x, y, (i % 7) as i64]).collect();
        let mk = || {
            data::block_split(rows.clone(), v)
                .into_iter()
                .map(|b| ((b, Vec::new(), Vec::new()), (Vec::new(), Vec::new()), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmDominance, mk, v, d, bb);
        geometry_row(&mut t, "dominance", n, &rep, d, bb);

        // lower envelope
        let segs: Vec<(u64, [i64; 4])> = data::random_segments(n, 100_000, 6)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, [s.ax, s.ay, s.bx, s.by]))
            .collect();
        let mk = || {
            data::block_split(segs.clone(), v)
                .into_iter()
                .map(|b| (b, Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmLowerEnvelope, mk, v, d, bb);
        geometry_row(&mut t, "lower_envelope", n, &rep, d, bb);

        // interval stabbing (segment tree + batched 1D point location)
        let ivs: Vec<[i64; 3]> = data::uniform_u64(2 * n, 7)
            .chunks(2)
            .map(|c| {
                let a = (c[0] % 1_000_000) as i64;
                [a, a + (c[1] % 10_000) as i64, 1]
            })
            .collect();
        let qs: Vec<(u64, i64)> = (0..n as u64).map(|i| (i, (i as i64 * 37) % 1_000_000)).collect();
        let mk = || {
            data::block_split(ivs.clone(), v)
                .into_iter()
                .zip(data::block_split(qs.clone(), v))
                .map(|(ib, qb)| ((ib, qb), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmIntervalStab, mk, v, d, bb);
        geometry_row(&mut t, "segment_tree_stab", n, &rep, d, bb);

        // batched planar point location (also = trapezoidation core)
        let segs: Vec<(u64, [i64; 4])> = data::random_segments(n / 4, 200_000, 8)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, [s.ax, s.ay, s.bx, s.by]))
            .collect();
        let queries: Vec<(u64, i64, i64)> = data::random_points(n, 200_000, 9)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| (i as u64, x, y * 3))
            .collect();
        let mk = || {
            data::block_split(segs.clone(), v)
                .into_iter()
                .zip(data::block_split(queries.clone(), v))
                .map(|(sb, qb)| ((sb, qb), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmPointLocation, mk, v, d, bb);
        geometry_row(&mut t, "point_location", n, &rep, d, bb);

        // triangulation
        let pts = data::random_points(n, 1_000_000, 10);
        let idx: Vec<(u64, (i64, i64))> =
            pts.iter().copied().enumerate().map(|(i, p)| (i as u64, p)).collect();
        let mk = || {
            data::block_split(idx.clone(), v)
                .into_iter()
                .map(|b| ((b, Vec::new()), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmTriangulate, mk, v, d, bb);
        geometry_row(&mut t, "triangulation", n, &rep, d, bb);
    }
    t
}

use cgmio_algos::geometry::rects::CgmUnionArea as CgmUnionAreaWrap;

/// Figure 5, Group C: list/tree/graph problems — measured EM I/O with
/// the `(N log v)/DB` normalisation.
pub fn fig5c() -> Table {
    let mut t = Table::new(
        "fig5c_graphs",
        &["problem", "n", "em_ops", "lambda", "ops_per_NlogvDB", "parallel_eff"],
    );
    let (v, d, bb) = (8usize, 2usize, 2048usize);
    // Items per block at 24 bytes, the three-word frames the graph
    // programs once sent; kept fixed so rows stay comparable with older
    // tables (list ranking now sends one-word frames).
    let per_block = bb / 24;
    let logv = (v as f64).log2();
    let norm = |n: usize, ops: u64| {
        let ndb = n as f64 / (d as f64 * per_block as f64);
        ops as f64 / (ndb * logv)
    };
    for n in [1usize << 12, 1 << 14] {
        // list ranking
        let (succ, _) = data::random_list(n, 1);
        let mk = || {
            data::block_split(succ.clone(), v)
                .into_iter()
                .map(|b| (vec![n as u64], b, Vec::new()))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmListRank, mk, v, d, bb);
        t.row(vec![
            "list_ranking".into(),
            n.to_string(),
            rep.breakdown.algorithm_ops().to_string(),
            rep.costs.lambda().to_string(),
            format!("{:.2}", norm(n, rep.breakdown.algorithm_ops())),
            format!("{:.2}", rep.io.parallel_efficiency()),
        ]);

        // Euler tour (depths + tour positions)
        let parent = data::random_tree_parents(n, 2);
        let mk = || {
            data::block_split(parent.clone(), v)
                .into_iter()
                .map(|b| ((vec![n as u64], b, Vec::new()), (Vec::new(), Vec::new(), Vec::new())))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmEulerTour, mk, v, d, bb);
        t.row(vec![
            "euler_tour".into(),
            n.to_string(),
            rep.breakdown.algorithm_ops().to_string(),
            rep.costs.lambda().to_string(),
            format!("{:.2}", norm(n, rep.breakdown.algorithm_ops())),
            format!("{:.2}", rep.io.parallel_efficiency()),
        ]);

        // connected components + spanning forest
        let edges = data::gnm_edges(n, 2 * n, 3);
        let mk = || {
            let vb = data::block_split((0..n as u64).collect::<Vec<_>>(), v);
            let eb = data::block_split(edges.clone(), v);
            vb.into_iter()
                .zip(eb)
                .map(|(vv, ee)| ((n as u64, vv, Vec::new()), (edges.len() as u64, ee, Vec::new())))
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmConnectivity, mk, v, d, bb);
        t.row(vec![
            "connected_comp".into(),
            n.to_string(),
            rep.breakdown.algorithm_ops().to_string(),
            rep.costs.lambda().to_string(),
            format!("{:.2}", norm(n, rep.breakdown.algorithm_ops())),
            format!("{:.2}", rep.io.parallel_efficiency()),
        ]);

        // batched LCA
        let parent = data::random_tree_parents(n, 4);
        let queries: Vec<(u64, u64)> =
            (0..n as u64).map(|i| ((i * 7) % n as u64, (i * 13 + 5) % n as u64)).collect();
        let mk = || {
            data::block_split(parent.clone(), v)
                .into_iter()
                .zip(data::block_split(queries.clone(), v))
                .map(|(pb, qb)| {
                    (
                        (n as u64, pb, Vec::new()),
                        (Vec::new(), qb),
                        (Vec::new(), Vec::new(), (Vec::new(), Vec::new())),
                    )
                })
                .collect::<Vec<_>>()
        };
        let (_, rep) = run_seq_em(&CgmBatchedLca, mk, v, d, bb);
        t.row(vec![
            "batched_lca".into(),
            n.to_string(),
            rep.breakdown.algorithm_ops().to_string(),
            rep.costs.lambda().to_string(),
            format!("{:.2}", norm(n, rep.breakdown.algorithm_ops())),
            format!("{:.2}", rep.io.parallel_efficiency()),
        ]);

        // expression tree evaluation
        let nodes = data::random_expression(n / 2, 5);
        let mk = || expr_states(&nodes, v);
        let (_, rep) = run_seq_em(&CgmExprEval, mk, v, d, bb);
        t.row(vec![
            "expr_eval".into(),
            n.to_string(),
            rep.breakdown.algorithm_ops().to_string(),
            rep.costs.lambda().to_string(),
            format!("{:.2}", norm(n, rep.breakdown.algorithm_ops())),
            format!("{:.2}", rep.io.parallel_efficiency()),
        ]);

        // biconnected components (Tarjan–Vishkin composition)
        let nb = n / 4; // the 6-phase composition is the heaviest row
        let bedges = {
            // connected: random tree + extra edges
            let mut es: Vec<(u64, u64)> =
                (1..nb as u64).map(|x| (x.wrapping_mul(0x9E37_79B9) % x, x)).collect();
            es.extend(data::gnm_edges(nb, nb / 2, 7));
            es.sort_unstable();
            es.dedup();
            es.retain(|&(a, b)| a != b);
            es
        };
        let (_, rep) = cgmio_algos::graphs::cgm_biconnected_components(
            nb,
            &bedges,
            v,
            cgmio_algos::graphs::Exec::SeqEm { d, block_bytes: bb },
        );
        t.row(vec![
            "biconnected".into(),
            nb.to_string(),
            rep.io_ops.to_string(),
            rep.rounds.to_string(),
            format!("{:.2}", norm(nb, rep.io_ops)),
            "-".into(),
        ]);
    }
    t
}

/// Figure 6: the surface `N^(c−1) = v^c·B^(c−1)` (B = 1000 items).
pub fn fig6() -> Table {
    let mut t = Table::new("fig6_surface", &["c", "v", "B", "N_min", "log10_N"]);
    for c in [2.0f64, 3.0] {
        for v in [10f64, 100.0, 1000.0, 10_000.0] {
            let n = params::surface_n(v, 1000.0, c);
            t.row(vec![
                format!("{c}"),
                format!("{v}"),
                "1000".into(),
                format!("{n:.3e}"),
                format!("{:.2}", n.log10()),
            ]);
        }
    }
    t
}

/// Figure 7: the c = 2 slice — minimum N per processor count.
pub fn fig7() -> Table {
    let mut t = Table::new("fig7_c2_slice", &["v", "B", "N_min", "check_log_term"]);
    for v in [2f64, 8.0, 32.0, 100.0, 1000.0, 10_000.0] {
        let n = params::surface_n(v, 1000.0, 2.0);
        let lt = params::log_term(n * 1.0001, v, 1000.0).unwrap();
        t.row(vec![format!("{v}"), "1000".into(), format!("{n:.3e}"), format!("{lt:.3}")]);
    }
    t
}

/// Figure 8: effective throughput vs block size (Stevens' measurement,
/// reproduced on the disk timing model).
pub fn fig8() -> Table {
    let mut t = Table::new("fig8_blocksize", &["block_bytes", "throughput_MB_s", "frac_of_peak"]);
    let m = disk_model();
    let peak = m.bandwidth_bytes_per_us * 1e6;
    let mut b = 512usize;
    while b <= 16 << 20 {
        let thr = m.throughput_bytes_per_s(b);
        t.row(vec![b.to_string(), format!("{:.2}", thr / 1e6), format!("{:.3}", thr / peak)]);
        b *= 4;
    }
    t
}

/// Theorem 2/3 audit with the operations ledger: per purpose (context
/// swaps and message traffic) the operations a sort, a token ring and
/// list ranking cost, split into the payload's share of Theorem 2's `vμ/(DB)` per
/// transfer, the padding of partial trailing blocks, the stripe floor
/// (`Σ⌈blocks/D⌉` over the gather lists the runner submitted) and the
/// narrow operations above it. The floors are rebuilt from the program's
/// own context and message lengths (a `Ledger` wrapper): messages pack
/// into one mailbox per destination, so an inbox is `⌈mailbox/B⌉` blocks
/// — the mailbox floor — and the ledger replays the runner's open-block
/// pool to split the writes into lists. A group's contexts and inboxes
/// are one read list: the contexts' floor is `⌈ctx blocks/D⌉`, the
/// messages' the rest of the list's. A context write list holds only
/// the blocks whose bytes the round changed, found by comparing the
/// state's encodings before and after it. The ledger replays the two
/// context carries from the blocks' drives: a write list holds back the
/// last block on each drive at its busiest count when fewer than `D`
/// drives reach it, for the next group's list to write, and a read list
/// takes the next group's blocks that fit under its busiest count; at
/// `from_requirements`' `M` the carries never need to give way. The
/// run's exact counters must then
/// add up — its blocks are the ledger's, and `floor + narrow =
/// algorithm_ops`, with `narrow` from `IoStats::narrow_ops` — or the
/// audit panics. It also panics if a set-up or readout pass moved a
/// block (superstep 0 takes its contexts from the input, and the last
/// superstep hands them to the finals), and if the ring's messages are
/// not at their stripe floor: every message list uses both drives.
pub fn audit() -> Table {
    let mut t = Table::new(
        "audit_theorem2",
        &[
            "case",
            "n",
            "v",
            "D",
            "B",
            "k",
            "lambda",
            "purpose",
            "ops",
            "payload_ops",
            "padding_bytes",
            "stripe_floor",
            "narrow_ops",
            "ops_over_thm2",
        ],
    );
    let sort = |n: usize, v: usize| {
        let keys = data::uniform_u64(n, 42);
        move || data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect()
    };
    // The Figure 3 sort at two sizes, the benchmark sorts' shape (v = 32,
    // D = 4, messages of about one block), and `ring-largev`'s shape.
    for (n, v, d, bb) in
        [(1usize << 14, 16, 2, 2048), (1 << 16, 16, 2, 2048), (1 << 16, 32, 4, 512)]
    {
        audit_rows(&mut t, "sort", n, &CgmSort::<u64>::by_pivots(), sort(n, v), d, bb);
    }
    let ring = || (0..1000u64).map(|i| vec![i]).collect::<Vec<_>>();
    let narrow =
        audit_rows(&mut t, "ring", 1000, &cgmio_model::demo::TokenRing { rounds: 2 }, ring, 2, 64);
    assert_eq!(narrow[1], 0, "ring: message operations above the stripe floor");
    // `listrank-pipe`'s shape (v = 32, D = 4), whose reply rounds leave
    // every context block as it was read.
    let n = 1 << 14;
    let (succ, _) = data::random_list(n, 42);
    let lists = || {
        let parts = data::block_split(succ.clone(), 32).into_iter();
        parts.map(|b| (vec![n as u64], b, Vec::new())).collect()
    };
    audit_rows(&mut t, "listrank", n, &CgmListRank, lists, 4, 1024);
    t
}

/// A program wrapped to record what the runner moves for it, as its own
/// state and outbox see it: per round and vp, the context bytes read
/// (before the round), the `B`-chunks of its encoding after the round
/// that differ from the one before (all of them in round 0, which reads
/// no image) — the blocks step (e) writes — and the bytes of each
/// message sent.
struct Ledger<'a, P> {
    inner: &'a P,
    block_bytes: usize,
    log: std::sync::Mutex<Vec<LedgerEntry>>,
}

/// `(round, pid, ctx bytes read, [(chunk, bytes)] written,
/// [(dst, message bytes)])`.
type LedgerEntry = (usize, usize, usize, Vec<(usize, usize)>, Vec<(usize, usize)>);

impl<P: cgmio_model::CgmProgram> cgmio_model::CgmProgram for Ledger<'_, P> {
    type Msg = P::Msg;
    type State = P::State;

    fn round(
        &self,
        ctx: &mut cgmio_model::RoundCtx<'_, P::Msg>,
        state: &mut P::State,
    ) -> cgmio_model::Status {
        use cgmio_model::ProcState;
        use cgmio_pdm::Item;
        let read = state.to_bytes();
        let status = self.inner.round(ctx, state);
        // Superstep 0 takes its states from the input: it has no image.
        let (bb, image) = (self.block_bytes, if ctx.round == 0 { &[][..] } else { &read[..] });
        let new = state.to_bytes();
        let changed = new.chunks(bb).enumerate();
        let changed = changed.filter(|&(q, c)| image.get(q * bb..q * bb + c.len()) != Some(c));
        let changed = changed.map(|(q, c)| (q, c.len())).collect();
        let sent = (0..ctx.v).map(|dst| (dst, ctx.outbox.queued(dst) * P::Msg::SIZE));
        let sent = sent.filter(|&(_, bytes)| bytes > 0).collect();
        let entry = (ctx.round, ctx.pid, read.len(), changed, sent);
        self.log.lock().expect("ledger lock").push(entry);
        status
    }
}

/// Run `prog` on the sequential EM runner under a [`Ledger`], append
/// the context and message rows of the audit (see [`audit`]) and return
/// their narrow operations.
fn audit_rows<P: cgmio_model::CgmProgram>(
    t: &mut Table,
    case: &str,
    n: usize,
    prog: &P,
    mk: impl Fn() -> Vec<P::State>,
    d: usize,
    bb: usize,
) -> [i64; 2] {
    use cgmio_pdm::Item;
    let v = mk().len();
    let (_, _, req) = measure_requirements(prog, mk()).expect("dry run");
    let cfg = EmConfig::from_requirements(v, 1, d, bb, &req);
    let (k, m) = (cfg.vp_group, cfg.mem_bytes);
    // Each context slot spans `sb` blocks of one round-robin stream, and
    // a carry holds at most `c` blocks: `D − 1`, or what `M` leaves
    // beyond `max(k·μ, D·B)`, in two halves.
    let sb = cfg.max_ctx_bytes.div_ceil(bb).max(1);
    let c = (m.saturating_sub((k * cfg.max_ctx_bytes).max(d * bb)) / (2 * bb)).min(d - 1);
    let ledger = Ledger { inner: prog, block_bytes: bb, log: Default::default() };
    let (_, rep) = SeqEmRunner::new(cfg).run(&ledger, mk()).expect("EM run");
    let mut log = ledger.log.into_inner().expect("ledger lock");
    log.sort_by_key(|e| (e.0, e.1));

    // Per purpose: [ctx, msg] payload bytes, blocks and stripe floor.
    let (s, b) = (P::Msg::SIZE, |bytes: usize| bytes.div_ceil(bb));
    let (mut payload, mut nblocks, mut floor) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    let mut list = |blocks: [usize; 2], bytes: [usize; 2]| {
        let ctx = (blocks[0] as u64).div_ceil(d as u64);
        let all = (blocks[0] + blocks[1]) as u64;
        for p in 0..2 {
            payload[p] += bytes[p] as u64;
            nblocks[p] += blocks[p] as u64;
        }
        floor[0] += ctx;
        floor[1] += all.div_ceil(d as u64) - ctx;
    };
    fn sum(it: impl Iterator<Item = (usize, usize)>) -> (usize, usize) {
        it.fold((0, 0), |a, x| (a.0 + x.0, a.1 + x.1))
    }
    // Context block `q` of vp `j`, and block `q` of mailbox `j`, are on
    // these drives.
    let ctx_drive = |j: usize, q: usize| (j * sb + q) % d;
    let mbox_drive = |j: usize, q: usize| (j + 1 + q) % d;
    // Blocks per drive of a list of drives, and its busiest count.
    let count = |drives: &mut dyn Iterator<Item = usize>| {
        let mut per = vec![0usize; d];
        drives.for_each(|x| per[x] += 1);
        let most = per.iter().copied().max().unwrap_or(0);
        (per, most)
    };
    // Each mailbox in items: its end and whether its last block is open.
    let mut mailbox = vec![(0usize, false); v];
    let mut inbox = vec![0usize; v];
    // Superstep r, group g: contexts and inboxes in as one list (what
    // the previous round sent to the group), outboxes out, contexts out.
    // Superstep 0 takes its contexts from the input and the last one
    // hands them to the finals: neither touches the disks.
    let rounds = log.last().map_or(0, |e| e.0 + 1);
    for (r, round) in log.chunk_by(|a, b| a.0 == b.0).enumerate() {
        let read = std::mem::replace(&mut mailbox, vec![(0, false); v]);
        let received = std::mem::replace(&mut inbox, vec![0; v]);
        let groups: Vec<&[LedgerEntry]> = round.chunks(k).collect();
        // Context blocks `(vp, q)` an earlier list read or holds back.
        let (mut fetched, mut held) = (Vec::<(usize, usize)>::new(), Vec::<(usize, usize)>::new());
        for (g, group) in groups.iter().enumerate() {
            let pids = group[0].1..group[0].1 + group.len();
            let last = g + 1 == groups.len();
            if r > 0 {
                let own: Vec<(usize, usize)> = (group.iter())
                    .flat_map(|e| (0..b(e.2)).map(move |q| (e.1, q)))
                    .filter(|x| !fetched.contains(x))
                    .collect();
                let mboxes = pids.clone().flat_map(|j| (0..b(read[j].0 * s)).map(move |q| (j, q)));
                let drives = own.iter().map(|&(j, q)| ctx_drive(j, q));
                let (mut per, most) =
                    count(&mut drives.chain(mboxes.map(|(j, q)| mbox_drive(j, q))));
                // The read fill: the next group's blocks, in slot order,
                // on a drive below the busiest count, at most `c`.
                fetched.clear();
                let next = groups.get(g + 1).into_iter().flat_map(|n| n.iter());
                for x in next.flat_map(|e| (0..b(e.2)).map(move |q| (e.1, q))) {
                    if fetched.len() < c && per[ctx_drive(x.0, x.1)] < most {
                        per[ctx_drive(x.0, x.1)] += 1;
                        fetched.push(x);
                    }
                }
                let ctx_bytes = group.iter().map(|e| e.2).sum();
                let msgs = sum(pids.clone().map(|j| (b(read[j].0 * s), received[j])));
                list([own.len() + fetched.len(), msgs.0], [ctx_bytes, msgs.1]);
            }
            // The runner's write list: each mailbox continues its open
            // block or, if it has a written partial one, resumes at the
            // next block; then the `hold` lowest mailboxes with an open
            // block keep it, and the others' are written. `hold` is what
            // `M` leaves beyond the group, `D` blocks and the carries.
            let sent: Vec<(usize, usize)> = group.iter().flat_map(|e| e.4.clone()).collect();
            let sent_bytes: usize = sent.iter().map(|x| x.1).sum();
            let mem = group.iter().map(|e| e.2 + received[e.1]).sum::<usize>() + sent_bytes;
            let hold = if last { 0 } else { m.saturating_sub(mem + (d + 2 * c) * bb) / bb };
            let mut runs: Vec<(usize, usize)> = Vec::new(); // (mailbox, first block)
            for &(dst, bytes) in &sent {
                let (end, open) = mailbox[dst];
                if runs.iter().all(|r| r.0 != dst) {
                    let start = match open || (end * s).is_multiple_of(bb) {
                        true => end,
                        false => ((end * s).div_ceil(bb) * bb).div_ceil(s),
                    };
                    runs.push((dst, start * s / bb));
                    mailbox[dst].0 = start;
                }
                mailbox[dst].0 += bytes / s;
                inbox[dst] += bytes;
            }
            let old: Vec<usize> =
                (0..v).filter(|&j| mailbox[j].1 && runs.iter().all(|r| r.0 != j)).collect();
            let partial =
                runs.iter().map(|r| r.0).filter(|&j| !(mailbox[j].0 * s).is_multiple_of(bb));
            let mut open: Vec<usize> = old.iter().copied().chain(partial).collect();
            open.sort_unstable();
            let kept = &open[..hold.min(open.len())];
            let written: usize =
                runs.iter().map(|&(j, first)| b(mailbox[j].0 * s) - first).sum::<usize>()
                    + old.iter().filter(|j| !kept.contains(j)).count()
                    - runs.iter().filter(|r| kept.contains(&r.0)).count();
            for &j in old.iter().chain(runs.iter().map(|r| &r.0)) {
                mailbox[j].1 = kept.contains(&j);
            }
            list([0, written], [0, sent_bytes]);
            if r + 1 < rounds {
                // The write carry: the blocks held back go first; if fewer
                // than `D` drives reach the busiest count, the last block on
                // each that does is held back for the next group's list.
                let own = group.iter().flat_map(|e| e.3.iter().map(move |&(q, _)| (e.1, q)));
                let blocks: Vec<(usize, usize)> = held.drain(..).chain(own).collect();
                let (per, most) = count(&mut blocks.iter().map(|&(j, q)| ctx_drive(j, q)));
                if !last && per.iter().filter(|&&x| x == most).count() <= c {
                    for x in (0..d).filter(|&x| per[x] == most) {
                        held.extend(blocks.iter().rfind(|&&(j, q)| ctx_drive(j, q) == x));
                    }
                }
                let bytes = group.iter().flat_map(|e| e.3.iter().map(|x| x.1)).sum();
                list([blocks.len() - held.len(), 0], [bytes, 0]);
            }
        }
        assert!(held.is_empty() && fetched.is_empty(), "{case}: a carry outlived round {r}");
    }
    let b = rep.breakdown;
    assert_eq!((b.setup_ops, b.readout_ops), (0, 0), "{case}: a set-up or readout pass ran");
    assert_eq!(
        nblocks[0] + nblocks[1],
        rep.io.total_blocks(),
        "{case}: the ledger's blocks are not the blocks the runner moved"
    );
    assert_eq!(
        floor[0] + floor[1] + rep.io.narrow_ops,
        b.algorithm_ops(),
        "{case}: stripe floor + narrow operations != algorithm_ops"
    );
    assert!(b.ctx_ops >= floor[0], "{case}: ctx ops {} below the stripe floor", b.ctx_ops);
    let predicted = rep.costs.predicted_ops(v, d, bb);
    let narrow = [b.ctx_ops as i64 - floor[0] as i64, b.msg_ops as i64 - floor[1] as i64];
    for (p, (purpose, ops)) in [("ctx", b.ctx_ops), ("msg", b.msg_ops)].into_iter().enumerate() {
        t.row(vec![
            case.into(),
            n.to_string(),
            v.to_string(),
            d.to_string(),
            bb.to_string(),
            k.to_string(),
            rep.costs.lambda().to_string(),
            purpose.into(),
            ops.to_string(),
            format!("{:.2}", payload[p] as f64 / (d * bb) as f64),
            (nblocks[p] * bb as u64 - payload[p]).to_string(),
            floor[p].to_string(),
            narrow[p].to_string(),
            format!("{:.2}", ops as f64 / predicted),
        ]);
    }
    narrow
}

/// A maximally skewed exchange: each processor ships its whole block to
/// one neighbour in a single message (size `N/v`, i.e. `v×` the balanced
/// message size) — the pattern Lemma 2 exists to fix.
#[derive(Clone, Copy)]
struct BulkShift {
    items: usize,
}

impl cgmio_model::CgmProgram for BulkShift {
    type Msg = u64;
    type State = Vec<u64>;

    fn round(
        &self,
        ctx: &mut cgmio_model::RoundCtx<'_, u64>,
        state: &mut Vec<u64>,
    ) -> cgmio_model::Status {
        match ctx.round {
            0 => {
                let dst = (ctx.pid + 1) % ctx.v;
                let base = ctx.pid as u64 * 1000;
                ctx.send(dst, (0..self.items as u64).map(move |k| base + k));
                cgmio_model::Status::Continue
            }
            _ => {
                *state = ctx.incoming.flatten();
                cgmio_model::Status::Done
            }
        }
    }
}

/// BalancedRouting ablation: skewed traffic through the EM engine with
/// and without the Lemma 2 transformation.
pub fn ablation_balance() -> Table {
    let mut t = Table::new(
        "ablation_balance",
        &["variant", "msg_ops", "max_message", "parallel_eff", "slot_items"],
    );
    let v = 16usize;
    let items = 4096usize;
    let (d, bb) = (4usize, 1024usize);
    let mk = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
    let plain = BulkShift { items };
    {
        let (_, _, req) = measure_requirements(&plain, mk()).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, d, bb, &req);
        let slot = cfg.msg_slot_items;
        let (_, rep) = SeqEmRunner::new(cfg).run(&plain, mk()).unwrap();
        t.row(vec![
            "unbalanced".into(),
            rep.breakdown.msg_ops.to_string(),
            rep.costs.max_message().to_string(),
            format!("{:.2}", rep.io.parallel_efficiency()),
            slot.to_string(),
        ]);
    }
    {
        let bal = Balanced::new(plain);
        let (_, _, req) = measure_requirements(&bal, mk()).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, d, bb, &req);
        let slot = cfg.msg_slot_items;
        let (_, rep) = SeqEmRunner::new(cfg).run(&bal, mk()).unwrap();
        t.row(vec![
            "balanced".into(),
            rep.breakdown.msg_ops.to_string(),
            rep.costs.max_message().to_string(),
            format!("{:.2}", rep.io.parallel_efficiency()),
            slot.to_string(),
        ]);
    }
    t
}

/// I/O event trace of the Figure 3 sort run through the `cgmio-io`
/// concurrent engine. The full per-transfer event log of the Fig 3
/// geometry (D = 1) is archived as `fig3_io_trace.jsonl` under the
/// output directory; the table summarises the traces for D ∈ {1, 2, 4}.
pub fn io_trace(out_dir: &std::path::Path) -> Table {
    let mut t = Table::new(
        "io_trace_summary",
        &[
            "n",
            "D",
            "events",
            "reads",
            "writes",
            "prefetches",
            "cache_hits",
            "bytes",
            "max_queue_depth",
            "mean_read_lat_us",
            "mean_q_wait_us",
            "mean_service_us",
            "stalls",
            "retries",
            "prefetch_drops",
            "supersteps",
        ],
    );
    let mut drives_t = Table::new(
        "io_trace_drives",
        &["n", "D", "drive", "reads", "writes", "mean_q_wait_us", "mean_service_us", "stalls"],
    );
    let (v, bb) = (16usize, 4096usize);
    let n = 1usize << 14;
    for d in [1usize, 2, 4] {
        let drives = cgmio_pdm::testutil::TempDir::new("cgmio-trace");
        let rep = crate::em_sort_report_traced(n, v, d, bb, drives.path());
        let s = cgmio_io::summarize(&rep.io_trace);
        if d == 1 {
            // Fig 3's geometry — archive the full event log.
            let path = out_dir.join("fig3_io_trace.jsonl");
            let saved = std::fs::create_dir_all(out_dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|mut f| cgmio_io::write_jsonl(&rep.io_trace, &mut f));
            match saved {
                Ok(()) => eprintln!("  saved {}", path.display()),
                Err(e) => eprintln!("  trace save failed: {e}"),
            }
        }
        t.row(vec![
            n.to_string(),
            d.to_string(),
            rep.io_trace.len().to_string(),
            s.reads.to_string(),
            s.writes.to_string(),
            s.prefetches.to_string(),
            s.cache_hits.to_string(),
            s.bytes.to_string(),
            s.max_queue_depth.to_string(),
            s.mean_read_latency_us.to_string(),
            s.mean_read_queue_wait_us.to_string(),
            s.mean_read_service_us.to_string(),
            s.stalls.to_string(),
            s.retries.to_string(),
            s.prefetch_drops.to_string(),
            s.supersteps.to_string(),
        ]);
        // Per-drive queue-wait vs service split: a drive whose queue
        // wait dwarfs its service time is *behind* (deepen the pipeline
        // or add drives); one whose service time dominates is *slow*.
        for drive in 0..d {
            let evs: Vec<_> = rep.io_trace.iter().filter(|e| e.drive == drive).cloned().collect();
            let ds = cgmio_io::summarize(&evs);
            drives_t.row(vec![
                n.to_string(),
                d.to_string(),
                drive.to_string(),
                ds.reads.to_string(),
                ds.writes.to_string(),
                ds.mean_read_queue_wait_us.to_string(),
                ds.mean_read_service_us.to_string(),
                ds.stalls.to_string(),
            ]);
        }
    }
    match drives_t.save_csv(out_dir) {
        Ok(p) => eprintln!("  saved {}", p.display()),
        Err(e) => eprintln!("  io_trace_drives.csv save failed: {e}"),
    }
    t
}

/// Fault-injection sweep (the `faults` experiment). The Figure 3 sort
/// (n = 2^14 keys, v = 16, D = 2, B = 4096) runs on the concurrent
/// engine while a seeded [`cgmio_pdm::FaultInjector`] fires transient
/// read/write faults at increasing rates; the drive workers heal every
/// fault by bounded retry (6 attempts, checksum verification on). Each
/// rate is additionally run a second time, killed at the superstep-1
/// barrier, and resumed from its checkpoint — `resume_exact` records
/// whether the resumed run reproduced the uninterrupted run's final
/// states and exact I/O counts. `retry_overhead_pct` is the recovery
/// traffic (retried transfers) relative to the model's parallel I/O
/// operations; the model counts themselves are fault-invariant.
pub fn faults(_out_dir: &std::path::Path) -> Table {
    use cgmio_core::{BackendSpec, RunOutcome};
    use cgmio_io::{IoEngineOpts, RetryPolicy};
    use cgmio_pdm::{FaultPlan, FaultStats};
    use std::sync::Arc;

    let mut t = Table::new(
        "faults_recovery",
        &["rate", "em_ops", "injected", "retries", "retry_overhead_pct", "wall_ms", "resume_exact"],
    );
    let (n, v, d, bb) = (1usize << 14, 16usize, 2usize, 4096usize);
    let keys = data::uniform_u64(n, 42);
    let mk = || {
        data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect::<Vec<_>>()
    };
    let prog = CgmSort::<u64>::by_pivots();
    let base_cfg = crate::config_for(&prog, mk(), v, 1, d, bb);

    let cfg_at = |rate: f64, stats: &Arc<FaultStats>| {
        let mut cfg = base_cfg.clone();
        cfg.backend = BackendSpec::Concurrent {
            dir: None, // memory-backed: concurrency + faults, no files
            opts: IoEngineOpts {
                trace: true,
                verify_checksums: true,
                retry: RetryPolicy { max_attempts: 6, base_backoff_us: 0 },
                ..Default::default()
            },
        };
        if rate > 0.0 {
            cfg.fault = Some(FaultPlan::transient(1999, rate).with_observer(stats.clone()));
        }
        cfg
    };

    let mut fault_free_finals = None;
    // ~2.5k physical transfers at this size: 0.005 is the smallest rate
    // that reliably injects at least a handful of faults.
    for rate in [0.0f64, 0.005, 0.01, 0.05] {
        let stats = Arc::new(FaultStats::default());
        let (finals, rep) =
            SeqEmRunner::new(cfg_at(rate, &stats)).run(&prog, mk()).expect("faulty sort run");
        let fault_free = fault_free_finals.get_or_insert_with(|| finals.clone());
        assert_eq!(&finals, fault_free, "faults must never change results (rate {rate})");

        // Kill at the superstep-1 barrier and resume from the checkpoint.
        let rstats = Arc::new(FaultStats::default());
        let mut hcfg = cfg_at(rate, &rstats);
        hcfg.halt_after_superstep = Some(1);
        let resume_exact = match SeqEmRunner::new(hcfg.clone())
            .run_until(&prog, mk())
            .expect("run to halt")
        {
            RunOutcome::Interrupted(ckpt) => {
                let mut rcfg = hcfg;
                rcfg.halt_after_superstep = None;
                let (rf, rr) =
                    SeqEmRunner::new(rcfg).resume(&prog, ckpt).expect("resume").expect_complete();
                rf == finals && rr.io == rep.io && rr.breakdown == rep.breakdown
            }
            RunOutcome::Complete { .. } => false,
        };

        let s = cgmio_io::summarize(&rep.io_trace);
        t.row(vec![
            format!("{rate}"),
            rep.breakdown.algorithm_ops().to_string(),
            stats.counts().total_errors().to_string(),
            s.retries.to_string(),
            format!("{:.2}", 100.0 * s.retries as f64 / rep.io.total_ops().max(1) as f64),
            rep.wall.as_millis().to_string(),
            if resume_exact { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// Section 5 cache extension: the same parameter collapse at the
/// cache / main-memory interface.
pub fn cache() -> Table {
    let mut t = Table::new(
        "cache_extension",
        &["M_I_bytes", "B_I_bytes", "M/B", "N_max_c2_items", "N_max_c3_items"],
    );
    for (mi, bi) in [(32 * 1024usize, 64usize), (256 * 1024, 64), (8 * 1024 * 1024, 64)] {
        let mb = (mi / bi) as f64;
        // log_{M/B}(N/B) <= c  <=>  N <= B * (M/B)^c (items scaled by B)
        let n2 = mb.powi(2) * (bi as f64 / 8.0);
        let n3 = mb.powi(3) * (bi as f64 / 8.0);
        t.row(vec![
            mi.to_string(),
            bi.to_string(),
            format!("{mb}"),
            format!("{n2:.3e}"),
            format!("{n3:.3e}"),
        ]);
    }
    t
}

/// One cell of the `disk` experiment: every timed run of one backend at
/// one D.
struct DiskCell {
    d: usize,
    backend: &'static str,
    walls_ms: Vec<f64>,
    io_ops: u64,
    io_blocks: u64,
    /// Mean submission-batch size (blocks per queue drain) from an
    /// untimed instrumented run.
    mean_batch_blocks: f64,
}

impl DiskCell {
    /// Nearest-rank quantile (`p` in 0–100) of the timed runs, in
    /// milliseconds.
    fn q(&self, p: f64) -> f64 {
        let mut sorted = self.walls_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// `disk`: the engine's two file-backed configurations on *real
/// multi-file layouts*, D ∈ {4, 8, 16} — `threads` layers it over a
/// `FileStorage` track by track with the prefetch cache
/// (`BackendSpec::Concurrent`), `async` lets the workers own the drive
/// files and issue coalesced runs (`BackendSpec::AsyncFile`). The Fig 3
/// sort runs on each with one `disk{d}.dat` file per drive in a fresh
/// directory; finals and `IoStats` are asserted bit-identical in every
/// run (logical accounting must not see the physical backend). Timing
/// is `reps` pairs per D, alternating which backend runs first, reported
/// as median and quartiles; a difference counts only when one side wins
/// at least nine tenths of the pairs *and* the medians differ by more
/// than the interquartile spread of the `threads` runs — otherwise the
/// cell says "within noise". An extra instrumented run per cell records
/// the mean submission-batch size. Writes `BENCH_disk.json` into the
/// output directory. Set `CGMIO_PERF_SMOKE=1` for a small size (CI
/// disk-smoke).
pub fn disk(out_dir: &std::path::Path) -> Table {
    use cgmio_core::BackendSpec;
    use cgmio_io::IoEngineOpts;
    use cgmio_obs::Obs;

    const BACKENDS: [&str; 2] = ["threads", "async"];
    let mut t = Table::new(
        "disk_backends",
        &[
            "d",
            "backend",
            "wall_ms_median",
            "wall_ms_q1",
            "wall_ms_q3",
            "runs",
            "io_ops",
            "io_blocks",
            "mean_batch_blocks",
            "vs_threads_pct",
            "pairs_won",
            "verdict",
        ],
    );
    let smoke = std::env::var_os("CGMIO_PERF_SMOKE").is_some();
    let (n, bb, reps) =
        if smoke { (1usize << 15, 4096usize, 3usize) } else { (1 << 19, 16384, 10) };
    let v = 16usize;
    let ds = [4usize, 8, 16];

    let keys = data::uniform_u64(n, 23);
    let mk = || {
        data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect::<Vec<_>>()
    };
    let prog = CgmSort::<u64>::by_pivots();
    let spec = |backend: &str, dir: std::path::PathBuf| match backend {
        "threads" => BackendSpec::Concurrent { dir: Some(dir), opts: IoEngineOpts::default() },
        _ => BackendSpec::AsyncFile { dir, opts: IoEngineOpts::default() },
    };

    let mut cells: Vec<DiskCell> = Vec::new();
    for d in ds {
        let base_cfg = crate::config_for(&prog, mk(), v, 1, d, bb);
        // Reference: the memory backend pins the expected finals and
        // IoStats for this geometry.
        let (want_fin, want_rep) =
            SeqEmRunner::new(base_cfg.clone()).run(&prog, mk()).expect("disk bench reference");
        let run = |backend: &str, obs: Option<Obs>| {
            let tmp = cgmio_pdm::testutil::TempDir::new("cgmio-disk-bench");
            let mut cfg = base_cfg.clone();
            cfg.obs = obs;
            cfg.backend = spec(backend, tmp.path().join("drives"));
            let (fin, rep) = SeqEmRunner::new(cfg).run(&prog, mk()).expect("disk bench run");
            assert_eq!(fin, want_fin, "D={d} {backend}: finals differ from memory backend");
            assert_eq!(rep.io, want_rep.io, "D={d} {backend}: IoStats differ");
            rep.wall.as_secs_f64() * 1e3
        };
        let mut walls = [Vec::new(), Vec::new()];
        for rep in 0..reps {
            // Alternate which side of the pair runs first, so drift of
            // the machine during the sweep lands on both equally.
            for side in [rep % 2, 1 - rep % 2] {
                walls[side].push(run(BACKENDS[side], None));
            }
        }
        for (backend, walls_ms) in BACKENDS.into_iter().zip(walls) {
            let obs = Obs::new();
            run(backend, Some(obs.clone()));
            let batches = obs.snapshot().histogram_sum("cgmio_io_submit_batch_blocks", &[]);
            // Both backends drain their queues through one worker loop,
            // so both must report batches of at least one block.
            assert!(batches.mean() >= 1.0, "D={d} {backend}: no submission batches recorded");
            cells.push(DiskCell {
                d,
                backend,
                walls_ms,
                io_ops: want_rep.io.total_ops(),
                io_blocks: want_rep.io.total_blocks(),
                mean_batch_blocks: batches.mean(),
            });
        }
    }

    // (async vs threads %, pairs async won, verdict) at one D.
    let compare = |d: usize| -> (f64, usize, &'static str) {
        let cell = |b: &str| cells.iter().find(|c| c.d == d && c.backend == b).expect("cell");
        let (th, asy) = (cell("threads"), cell("async"));
        let pct = 100.0 * (1.0 - asy.q(50.0) / th.q(50.0).max(1e-9));
        let won = asy.walls_ms.iter().zip(&th.walls_ms).filter(|(a, t)| a < t).count();
        let lost = asy.walls_ms.iter().zip(&th.walls_ms).filter(|(a, t)| a > t).count();
        let resolved = (asy.q(50.0) - th.q(50.0)).abs() > th.q(75.0) - th.q(25.0);
        let verdict = match () {
            _ if resolved && won * 10 >= reps * 9 => "async faster",
            _ if resolved && lost * 10 >= reps * 9 => "threads faster",
            _ => "within noise",
        };
        (pct, won, verdict)
    };

    let ms = |x: f64| format!("{x:.2}");
    let mut points = Vec::new();
    for c in &cells {
        let (pct, won, verdict) = compare(c.d);
        let vs = (c.backend == "async").then_some((pct, won, verdict));
        points.push(obj(vec![
            ("d", Value::num(c.d)),
            ("backend", Value::str(c.backend)),
            ("wall_ms_median", Value::num(ms(c.q(50.0)))),
            ("wall_ms_q1", Value::num(ms(c.q(25.0)))),
            ("wall_ms_q3", Value::num(ms(c.q(75.0)))),
            ("runs", Value::num(c.walls_ms.len())),
            ("io_ops", Value::num(c.io_ops)),
            ("io_blocks", Value::num(c.io_blocks)),
            ("mean_batch_blocks", Value::num(ms(c.mean_batch_blocks))),
            ("vs_threads_pct", vs.map_or(Value::Null, |x| Value::num(format!("{:.1}", x.0)))),
            ("pairs_won", vs.map_or(Value::Null, |x| Value::num(x.1))),
            ("verdict", vs.map_or(Value::Null, |x| Value::str(x.2))),
        ]));
        t.row(vec![
            c.d.to_string(),
            c.backend.to_string(),
            ms(c.q(50.0)),
            ms(c.q(25.0)),
            ms(c.q(75.0)),
            c.walls_ms.len().to_string(),
            c.io_ops.to_string(),
            c.io_blocks.to_string(),
            ms(c.mean_batch_blocks),
            vs.map_or("-".into(), |x| format!("{:.1}", x.0)),
            vs.map_or("-".into(), |x| x.1.to_string()),
            vs.map_or("-".into(), |x| x.2.to_string()),
        ]);
    }
    // Headline: the D where the medians differ the most, with whether
    // that difference is resolved.
    let (d, (pct, _, verdict)) = (ds.iter().map(|&d| (d, compare(d))))
        .max_by(|a, b| a.1 .0.abs().total_cmp(&b.1 .0.abs()))
        .expect("three geometries");
    let doc = obj(vec![
        ("schema", Value::num(1)),
        ("bench", Value::str("em_cgm_sort_disk_backends")),
        (
            "workload",
            Value::str(format!(
                "CgmSort<u64> by_pivots, n={n}, v={v}, B={bb} bytes, D in {{4,8,16}}; real \
                 per-drive files (disk{{d}}.dat layout): the queued drive engine layered over \
                 FileStorage (threads) vs owning the files and coalescing (async); {reps} \
                 alternating pairs per D, median and quartiles"
            )),
        ),
        ("reps", Value::num(reps)),
        ("smoke", Value::Bool(smoke)),
        ("points", Value::Arr(points)),
        (
            "headline",
            obj(vec![
                ("d", Value::num(d)),
                ("async_vs_threads_pct", Value::num(format!("{pct:.1}"))),
                ("verdict", Value::str(verdict)),
            ]),
        ),
    ]);
    let path = out_dir.join("BENCH_disk.json");
    // Best-effort like the CSVs: a failed save is reported, not fatal.
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, pretty(&doc))) {
        Ok(()) => eprintln!("  saved {}", path.display()),
        Err(e) => eprintln!("  BENCH_disk.json save failed: {e}"),
    }
    t
}

/// An object value from key/value pairs, in order.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Render a top-level object one field per line and an array field
/// one element per line, leaf values compact, so a regenerated
/// `results/` file diffs line by line.
fn pretty(doc: &Value) -> String {
    let lines: Vec<String> = (doc.as_object().expect("a JSON object").iter())
        .map(|(k, val)| {
            let key = Value::str(k.as_str()).render();
            match val {
                Value::Arr(items) if !items.is_empty() => {
                    let items: Vec<String> =
                        items.iter().map(|i| format!("    {}", i.render())).collect();
                    format!("  {key}: [\n{}\n  ]", items.join(",\n"))
                }
                other => format!("  {key}: {}", other.render()),
            }
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_figures_have_rows() {
        for t in [fig1(), fig2(), fig6(), fig7(), fig8(), cache()] {
            assert!(!t.rows.is_empty(), "{} is empty", t.title);
        }
    }

    #[test]
    fn io_trace_archives_fig3_jsonl() {
        let out = cgmio_pdm::testutil::TempDir::new("cgmio-io-trace-exp");
        let t = io_trace(out.path());
        assert_eq!(t.rows.len(), 3, "one summary row per D");
        let text = std::fs::read_to_string(out.path().join("fig3_io_trace.jsonl")).unwrap();
        assert!(text.lines().count() > 100, "Fig 3 sort must produce a substantial trace");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"kind\":\"prefetch\""), "read-ahead must appear in the trace");
    }

    #[test]
    fn faults_sweep_heals_and_resumes_exactly() {
        let out = cgmio_pdm::testutil::TempDir::new("cgmio-faults-exp");
        let t = faults(out.path());
        assert_eq!(t.rows.len(), 4, "one row per fault rate");
        // Every row — including the seeded 1% and 5% rates — must have
        // completed (no panic) and resumed bit-exactly.
        for row in &t.rows {
            assert_eq!(row[6], "yes", "rate {} did not resume exactly", row[0]);
        }
        // The zero-rate row injects nothing; the non-zero rows must both
        // inject faults and spend retries recovering from them.
        assert_eq!(t.rows[0][2], "0");
        assert_eq!(t.rows[0][3], "0");
        for row in &t.rows[1..] {
            let injected: u64 = row[2].parse().unwrap();
            let retries: u64 = row[3].parse().unwrap();
            assert!(injected > 0, "rate {} injected nothing", row[0]);
            assert!(retries > 0, "rate {} recorded no retries", row[0]);
        }
    }

    #[test]
    fn disk_json_renders_one_field_and_one_point_per_line() {
        let doc = obj(vec![
            ("reps", Value::num(2)),
            ("points", Value::Arr(vec![obj(vec![("d", Value::num(4))]); 2])),
            ("headline", Value::Null),
        ]);
        let text = pretty(&doc);
        assert_eq!(
            text,
            "{\n  \"reps\": 2,\n  \"points\": [\n    {\"d\":4},\n    {\"d\":4}\n  ],\n  \
             \"headline\": null\n}\n"
        );
        assert_eq!(cgmio_obs::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn disk_quantiles_are_nearest_rank() {
        let cell = |walls_ms: Vec<f64>| DiskCell {
            d: 4,
            backend: "threads",
            walls_ms,
            io_ops: 0,
            io_blocks: 0,
            mean_batch_blocks: 1.0,
        };
        assert_eq!(cell(vec![7.0]).q(50.0), 7.0);
        let c = cell((1..=100).map(f64::from).collect());
        assert_eq!([c.q(25.0), c.q(50.0), c.q(99.0), c.q(100.0)], [25.0, 50.0, 99.0, 100.0]);
        // Unsorted input is fine.
        assert_eq!(cell(vec![30.0, 10.0, 20.0]).q(50.0), 20.0);
    }

    /// The committed `results/BENCH_disk.json` is a full-size sweep:
    /// both backends at every D with equal counts, ten or more
    /// alternating pairs, and a verdict. Its timings are the machine's,
    /// so only their structure is checked.
    #[test]
    fn committed_disk_sweep_is_full_size_with_verdicts() {
        fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
            v.get(key).unwrap_or_else(|| panic!("no field {key} in {}", v.render()))
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_disk.json");
        let doc = cgmio_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "bench", "workload", "reps", "smoke", "points", "headline"]);
        assert_eq!(field(&doc, "schema").as_u64(), Some(1));
        assert_eq!(field(&doc, "bench").as_str(), Some("em_cgm_sort_disk_backends"));
        assert_eq!(field(&doc, "smoke"), &Value::Bool(false), "committed results are full-size");
        let reps = field(&doc, "reps").as_u64().unwrap();
        assert!(reps >= 10, "committed results need >= 10 alternating pairs, got {reps}");
        let verdicts = [Some("async faster"), Some("threads faster"), Some("within noise")];
        let points = field(&doc, "points").as_array().unwrap();
        for d in [4, 8, 16] {
            let cells: Vec<&Value> =
                points.iter().filter(|p| field(p, "d").as_u64() == Some(d)).collect();
            let backends: Vec<_> = cells.iter().map(|p| field(p, "backend").as_str()).collect();
            assert_eq!(backends, [Some("threads"), Some("async")], "D={d}");
            assert_eq!(
                field(cells[0], "io_ops"),
                field(cells[1], "io_ops"),
                "D={d}: io_ops differ"
            );
            for p in &cells {
                assert_eq!(field(p, "runs").as_u64(), Some(reps), "D={d}");
            }
            assert!(verdicts.contains(&field(cells[1], "verdict").as_str()), "D={d}");
        }
        assert!(verdicts.contains(&field(field(&doc, "headline"), "verdict").as_str()));
    }

    #[test]
    fn ablation_shows_balancing_helps_parallelism() {
        let t = ablation_balance();
        assert_eq!(t.rows.len(), 2);
        let unbal_max: u64 = t.rows[0][2].parse().unwrap();
        let bal_max: u64 = t.rows[1][2].parse().unwrap();
        assert!(bal_max < unbal_max, "balanced max message must shrink");
    }
}
