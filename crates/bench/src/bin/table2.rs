//! Regenerates **Table 2** of the paper: MESO classification accuracy
//! (leave-one-out and resubstitution) with training/testing times for
//! the four datasets (Pattern, Ensemble, PAA Pattern, PAA Ensemble).
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin table2 [-- --full] [--retrain]
//! ```
//!
//! `--retrain` uses the paper's literal leave-one-out procedure
//! (retraining MESO for every held-out item); the default removes the
//! held-out item from one trained memory and restores it, at a fraction
//! of the cost. Removal does not rewind δ or the spheres later patterns
//! founded, so it approximates the retrained memory; `DESIGN.md` §8
//! gives the measured difference.

use ensemble_bench::{build_corpus_and_datasets, header, pct, Scale};
use ensemble_core::classify::paper_meso_config;
use meso::crossval::{leave_one_out, resubstitution, CrossValConfig, LooMode};
use meso::Dataset;

/// Paper Table 2 values: (LOO mean, LOO std, resub mean, resub std).
const PAPER: [(&str, f64, f64, f64, f64); 4] = [
    ("Pattern", 0.715, 0.009, 0.923, 0.031),
    ("Ensemble", 0.760, 0.011, 0.963, 0.028),
    ("PAA Pattern", 0.804, 0.003, 0.947, 0.008),
    ("PAA Ensemble", 0.822, 0.009, 0.972, 0.012),
];

fn main() {
    let scale = Scale::from_args();
    let retrain = std::env::args().any(|a| a == "--retrain");
    let (_corpus, bundle) = build_corpus_and_datasets(&scale);

    let datasets: [(&str, &Dataset); 4] = [
        ("Pattern", &bundle.pattern),
        ("Ensemble", &bundle.ensemble),
        ("PAA Pattern", &bundle.paa_pattern),
        ("PAA Ensemble", &bundle.paa_ensemble),
    ];

    header("Table 2: MESO classification results");
    println!(
        "{:<14} {:>16} {:>16} {:>10} {:>10}   {:>14} {:>14}",
        "Data set",
        "Leave-one-out",
        "Resubstitution",
        "Train(s)",
        "Test(s)",
        "Paper LOO",
        "Paper resub"
    );
    for ((name, ds), paper) in datasets.iter().zip(PAPER) {
        let cv_loo = CrossValConfig {
            iterations: scale.loo_iters,
            seed: scale.seed,
            loo_mode: if retrain {
                LooMode::Retrain
            } else {
                LooMode::Removal
            },
            meso: paper_meso_config(),
        };
        let cv_resub = CrossValConfig {
            iterations: scale.resub_iters,
            ..cv_loo
        };
        let loo = leave_one_out(ds, &cv_loo);
        let resub = resubstitution(ds, &cv_resub);
        println!(
            "{:<14} {:>16} {:>16} {:>10.1} {:>10.1}   {:>14} {:>14}",
            name,
            pct(loo.mean_accuracy(), loo.std_accuracy()),
            pct(resub.mean_accuracy(), resub.std_accuracy()),
            loo.train_time.as_secs_f64() + resub.train_time.as_secs_f64(),
            loo.test_time.as_secs_f64() + resub.test_time.as_secs_f64(),
            pct(paper.1, paper.2),
            pct(paper.3, paper.4),
        );
    }
    println!(
        "\nnote: LOO {} iterations, resubstitution {} iterations, {} LOO mode.",
        scale.loo_iters,
        scale.resub_iters,
        if retrain { "retrain" } else { "removal" }
    );
    println!("Expected shape: ensemble > pattern, PAA > raw, resubstitution > LOO.");
}
