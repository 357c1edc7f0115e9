//! **Figure 3**: the qualitative failure of lightweight coresets on a 2-D
//! Gaussian mixture — a small cluster near the dataset's center of mass is
//! missed by 1-means sensitivities but captured by full sensitivity
//! sampling.
//!
//! Paper setup: 100 000 points, clusters of varying size, a circled cluster
//! of ~400 points, coresets of 200 points. This bench reports the capture
//! statistics over repeated runs and writes CSV files
//! (`target/fig3/*.csv`) for plotting.

use fc_bench::{BenchConfig, Table};
use fc_core::methods::Lightweight;
use fc_core::{CompressionParams, Compressor, FastCoreset};
use fc_geom::{Dataset, Points};
use rand::Rng;

use csv_dump::write_csv;

/// Tiny local helper: dump weighted 2-D points for external plotting.
mod csv_dump {
    use super::*;
    pub fn write_csv(path: &std::path::Path, data: &Dataset) {
        use std::io::Write;
        if let Ok(f) = std::fs::File::create(path) {
            let mut w = std::io::BufWriter::new(f);
            let _ = writeln!(w, "x,y,weight");
            for (p, &wt) in data.points().iter().zip(data.weights()) {
                let _ = writeln!(w, "{},{},{}", p[0], p[1], wt);
            }
        }
    }
}

/// Builds the Figure-3 instance: several large Gaussian clusters arranged
/// so their center of mass falls on a small ~400-point cluster.
fn figure3_dataset<R: Rng + ?Sized>(rng: &mut R, n: usize) -> (Dataset, [f64; 2], f64) {
    use rand_distr::{Distribution, StandardNormal};
    let small_center = [0.0f64, 0.0];
    let small_n = (n / 250).max(50); // ~0.4% of points, ~400 at n = 100k
                                     // Large clusters placed symmetrically so the global mean ≈ the origin.
    let big_centers: [[f64; 2]; 4] = [[-60.0, 0.0], [60.0, 0.0], [0.0, -60.0], [0.0, 60.0]];
    let per_big = (n - small_n) / 4;
    let mut flat = Vec::with_capacity(n * 2);
    for c in big_centers {
        for _ in 0..per_big {
            let gx: f64 = StandardNormal.sample(rng);
            let gy: f64 = StandardNormal.sample(rng);
            flat.push(c[0] + 6.0 * gx);
            flat.push(c[1] + 6.0 * gy);
        }
    }
    let small_std = 0.5;
    for _ in 0..(n - 4 * per_big) {
        let gx: f64 = StandardNormal.sample(rng);
        let gy: f64 = StandardNormal.sample(rng);
        flat.push(small_center[0] + small_std * gx);
        flat.push(small_center[1] + small_std * gy);
    }
    let points = Points::from_flat(flat, 2).expect("rectangular by construction");
    (Dataset::unweighted(points), small_center, 3.0)
}

fn captured(coreset: &fc_core::Coreset, center: &[f64; 2], radius: f64) -> usize {
    coreset
        .dataset()
        .points()
        .iter()
        .filter(|p| {
            let dx = p[0] - center[0];
            let dy = p[1] - center[1];
            (dx * dx + dy * dy).sqrt() <= radius
        })
        .count()
}

fn main() {
    let cfg = BenchConfig::from_env();
    let n = ((100_000.0 * cfg.scale) as usize).max(5_000);
    let m = 200usize;
    let k = 5usize;
    let params = CompressionParams {
        k,
        m,
        kind: fc_clustering::CostKind::KMeans,
    };

    let out_dir = std::path::Path::new("target/fig3");
    let _ = std::fs::create_dir_all(out_dir);

    let trials = (cfg.runs * 4).max(8);
    let mut lw_captures = 0usize;
    let mut fc_captures = 0usize;
    let mut first_dump = true;
    for t in 0..trials {
        let mut rng = cfg.rng(0xF163 + t as u64);
        let (data, center, radius) = figure3_dataset(&mut rng, n);
        let lw = Lightweight.compress(&mut rng, &data, &params);
        let fc = FastCoreset.compress(&mut rng, &data, &params);
        if captured(&lw, &center, radius) > 0 {
            lw_captures += 1;
        }
        if captured(&fc, &center, radius) > 0 {
            fc_captures += 1;
        }
        if first_dump {
            write_csv(&out_dir.join("original.csv"), &data);
            write_csv(&out_dir.join("lightweight.csv"), lw.dataset());
            write_csv(&out_dir.join("fast_coreset.csv"), fc.dataset());
            first_dump = false;
        }
    }

    let mut table = Table::new(
        format!(
            "Figure 3: capture of the small central cluster (~{} pts of {n}; coreset m = {m})",
            (n / 250).max(50)
        ),
        &["method", "runs capturing the circled cluster", "rate"],
    );
    table.row(vec![
        "lightweight".into(),
        format!("{lw_captures}/{trials}"),
        format!("{:.0}%", 100.0 * lw_captures as f64 / trials as f64),
    ]);
    table.row(vec![
        "fast-coreset".into(),
        format!("{fc_captures}/{trials}"),
        format!("{:.0}%", 100.0 * fc_captures as f64 / trials as f64),
    ]);
    table.print();
    println!("CSV dumps for plotting: target/fig3/{{original,lightweight,fast_coreset}}.csv");
    println!(
        "paper shape: lightweight misses the circled cluster; sensitivity sampling with j = k finds it"
    );
}
