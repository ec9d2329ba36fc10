//! E6 — throughput of the parallel primitives the method is built from:
//! reduction, scan, and segmented scan, versus input size.
//!
//! Supports the paper's method-section choice of "segmented scan and
//! reduction": modeled device throughput grows with input size until the
//! bandwidth roofline, while small inputs are launch-latency-bound — the
//! same effect that shapes the solver's E2 curve.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e6_primitives`

use fbs_bench::{rng_for, us, Table};
use numc::Complex;
use primitives::ops::{AddComplex, AddF64, MaxF64};
use primitives::{reduce, scan_inclusive, segscan_inclusive};
use rng::Rng;
use simt::{Device, DeviceProps};

const SIZES: [usize; 7] = [1024, 8192, 65_536, 262_144, 524_288, 1_048_576, 4_194_304];

fn modeled_since(dev: &Device, mark: usize) -> f64 {
    dev.timeline().breakdown_since(mark).total_us()
}

fn main() {
    let mut table = Table::new(
        "E6: Primitive modeled time and throughput vs input size",
        &[
            "elements",
            "reduce(max,f64)",
            "scan(add,f64)",
            "segscan(add,c64)",
            "segscan GB/s",
        ],
    );
    let mut rng = rng_for(60);

    for &n in &SIZES {
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cs: Vec<Complex> =
            (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let flags: Vec<u32> = (0..n).map(|i| u32::from(i % 64 == 0)).collect();

        let mut dev = Device::new(DeviceProps::paper_rig());
        let x_buf = dev.alloc_from(&xs);
        let c_buf = dev.alloc_from(&cs);
        let f_buf = dev.alloc_from(&flags);
        let mut out_f = dev.alloc::<f64>(n);
        let mut out_c = dev.alloc::<Complex>(n);

        let m = dev.timeline().mark();
        let _ = reduce::<f64, MaxF64>(&mut dev, &x_buf);
        let t_reduce = modeled_since(&dev, m);

        let m = dev.timeline().mark();
        scan_inclusive::<f64, AddF64>(&mut dev, &x_buf, &mut out_f);
        let t_scan = modeled_since(&dev, m);

        let m = dev.timeline().mark();
        segscan_inclusive::<Complex, AddComplex>(&mut dev, &c_buf, &f_buf, &mut out_c);
        let t_segscan = modeled_since(&dev, m);

        // Effective segscan throughput: value+flag read and value write.
        let bytes = (n * (16 + 4 + 16)) as f64;
        let gbps = bytes / t_segscan / 1e3;
        table.row(&[
            &n,
            &us(t_reduce),
            &us(t_scan),
            &us(t_segscan),
            &format!("{gbps:.1}"),
        ]);
    }

    table.emit("e6_primitives");
    println!("\nsmall inputs are launch-latency bound; large inputs approach the bandwidth roofline.");
}
