//! Quickstart: train an EigenPro 2.0 kernel machine with fully automatic
//! parameter selection.
//!
//! The paper's pitch is "worry-free" optimisation: pick a kernel and a
//! bandwidth, and everything else — batch size `m = m^max_G`, spectral
//! truncation `q`, step size `η` — is derived analytically from the data
//! and the device. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use eigenpro2::core::trainer::{EigenPro2, TrainConfig};
use eigenpro2::data::catalog;
use eigenpro2::device::ResourceSpec;
use eigenpro2::kernels::KernelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2000-point MNIST-shaped synthetic dataset (784 features, 10 classes).
    let data = catalog::mnist_like(2_000, 7);
    let (train, test) = data.split_at(1_600);
    println!(
        "dataset: {} — {} train / {} test, d = {}, {} classes",
        train.name,
        train.len(),
        test.len(),
        train.dim(),
        train.n_classes
    );

    // The only real choices: the kernel and its bandwidth.
    let config = TrainConfig {
        kernel: KernelKind::Gaussian,
        bandwidth: 5.0,
        epochs: 10,
        ..TrainConfig::default()
    };

    // The device abstraction G = (C_G, S_G): here a virtual GPU scaled for
    // laptop-size experiments; swap in ResourceSpec::titan_xp() to plan for
    // the paper's hardware.
    let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
    let outcome = trainer.fit(&train, Some(&test))?;

    let p = &outcome.report.params;
    println!("\nautomatically selected parameters (Table 4's columns):");
    println!("  batch size m = m^max_G = {}", p.m);
    println!("  q (Eq. 7) = {}, adjusted q = {}", p.q, p.adjusted_q);
    println!("  step size η = {:.1}", p.eta);
    println!("  m*(k) = {:.1}  →  m*(k_G) = {:.0}", p.m_star, p.m_star_g);
    println!(
        "  predicted acceleration (Appendix C) = {:.0}x",
        p.acceleration
    );

    println!("\ntraining:");
    for e in &outcome.report.epochs {
        println!(
            "  epoch {:>2}: probe mse {:.2e}, test error {:.2}%",
            e.epoch,
            e.probe_mse,
            e.val_error.unwrap_or(f64::NAN) * 100.0
        );
    }
    println!(
        "  train mse (all {} rows) {:.2e}",
        train.len(),
        outcome.report.final_train_mse
    );
    println!(
        "\nfinal test error: {:.2}%  (simulated GPU time {:.1} ms, wall {:.2} s, \
         preconditioner overhead {:.2}%)",
        outcome.report.final_val_error.unwrap() * 100.0,
        outcome.report.simulated_seconds * 1e3,
        outcome.report.wall_seconds,
        outcome.report.overhead_fraction * 100.0
    );
    Ok(())
}
