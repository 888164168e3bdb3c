//! KVStore tail latency: an open-loop stream of fine-grained GET kernels
//! served on one device, one real kernel launch per request (each verified
//! against the store), under each offload mechanism of Fig. 10b.
//!
//! ```text
//! cargo run --release --example kvstore_tail_latency
//! ```

use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{self, KvServeWorkload, ServeBackend, ServeConfig, TenantSpec};
use m2ndp::sim::FHistogram;
use m2ndp::SystemBuilder;

fn main() {
    // 10k GETs at 1M req/s against a 64K-item store, per mechanism.
    let mut runs: Vec<_> = [
        ("M2func           ", OffloadMechanism::M2Func),
        ("CXL.io ring buf  ", OffloadMechanism::CxlIoRingBuffer),
        ("CXL.io direct    ", OffloadMechanism::CxlIoDirect),
    ]
    .into_iter()
    .map(|(label, mech)| {
        let mut backend = ServeBackend::Device(Box::new(SystemBuilder::m2ndp().units(2).build()));
        let mut store = KvServeWorkload::build(&mut backend, 64 << 10, 0.99);
        let cfg = ServeConfig::with_defaults(mech);
        let tenant = TenantSpec::poisson("kvs", 1.0e6).requests(10_000).seed(7);
        (label, serve::run(&mut backend, &mut store, &cfg, &[tenant]))
    })
    .collect();

    let mut service = FHistogram::new();
    for r in &runs[0].1.records {
        service.record(r.service_ns);
    }
    println!(
        "GET kernel runtime on the device: p50 {:.0} ns, p95 {:.0} ns (paper: 0.77 us P95)",
        service.percentile(0.5),
        service.percentile(0.95)
    );

    println!("\nend-to-end P95 at 1M req/s:");
    for (label, report) in &mut runs {
        println!(
            "  {label} P95 = {:>8.0} ns   throughput = {:.2e}/s",
            report.combined.percentile(0.95),
            report.throughput
        );
    }
    println!("\nM2func keeps the launch overhead at 2 CXL.mem one-way latencies (150 ns),");
    println!("so the tail is dominated by the kernel itself, not the offload path (Fig. 10b).");
}
