//! Figure 1 — TLR representation of a covariance matrix Σ(θ) with fixed
//! accuracy: per-tile ranks, rank statistics, and memory footprint across
//! accuracy thresholds, compressed by the production compressor (rounded
//! ACA).
//!
//! ```text
//! cargo run --release -p exa-bench --bin fig1_tlr_ranks [--full]
//! ```

use exa_bench::{fmt_secs, parse_args};
use exa_covariance::{DistanceMetric, MaternKernel, MaternParams};
use exa_geostat::synthetic_locations_n;
use exa_tile::{CompressionMethod, TileMatrix};
use exa_util::{Rng, Stopwatch, Table};
use std::sync::Arc;

fn main() {
    let args = parse_args();
    let n = if args.full { 6400 } else { 1600 };
    let nb = if args.full { 400 } else { 100 };
    let mut rng = Rng::seed_from_u64(args.seed);
    let locs = Arc::new(synthetic_locations_n(n, &mut rng));
    let kernel = MaternKernel::new(
        locs,
        MaternParams::new(1.0, 0.1, 0.5),
        DistanceMetric::Euclidean,
        0.0,
    );

    println!("Figure 1: TLR representation of Σ(θ), n = {n}, nb = {nb}, θ = (1, 0.1, 0.5)\n");
    let mut table = Table::new(vec![
        "accuracy",
        "min rank",
        "max rank",
        "mean rank",
        "TLR bytes",
        "dense bytes",
        "compression",
        "assembly",
    ]);
    for eps in [1e-5, 1e-7, 1e-9, 1e-12] {
        let sw = Stopwatch::start();
        let tlr =
            TileMatrix::from_kernel(&kernel, nb, eps, CompressionMethod::Aca, args.workers, 0)
                .expect("assembly");
        let dt = sw.elapsed_secs();
        let stats = tlr.rank_stats();
        table.row(vec![
            format!("{eps:.0e}"),
            stats.min.to_string(),
            stats.max.to_string(),
            format!("{:.1}", stats.mean),
            exa_util::table::format_bytes(tlr.bytes() as u64),
            exa_util::table::format_bytes(tlr.dense_bytes() as u64),
            format!("{:.2}x", tlr.compression_ratio()),
            fmt_secs(dt),
        ]);
    }
    println!("{}", table.render());

    // Per-tile rank map at 1e-9 (the figure's visual).
    let tlr = TileMatrix::from_kernel(&kernel, nb, 1e-9, CompressionMethod::Aca, args.workers, 0)
        .expect("assembly");
    println!("Per-tile ranks at accuracy 1e-9 (row i, col j; D = dense diagonal):");
    for i in 0..tlr.nt {
        let mut line = String::new();
        for j in 0..=i {
            if i == j {
                line.push_str("   D");
            } else {
                line.push_str(&format!("{:4}", tlr.lr(i, j).rank()));
            }
        }
        println!("{line}");
    }
}
