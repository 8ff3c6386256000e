//! Per-layer probes for the traced run: each times one layer on the
//! workload's own input, apart from the serving path around it.

use crate::measure::median;
use crate::reference::{Pair, Rng};
use mpest_comm::{BitReader, BitWriter, Seed};
use mpest_core::{EstimateRequest, Session};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Protocols whose work goes through the per-session sketch cache.
const SKETCH_PROTOCOLS: [&str; 4] = ["lp", "lp-baseline", "l0-sample", "linf-general"];
/// Repetitions per probe; the probe reports their median.
const REPS: usize = 9;
/// Width of the codec probe's values (the widest field width the
/// protocols write, a 61-bit Mersenne field element).
const WIDTH: u32 = 61;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// `core.query_ms.<protocol>` (fresh seeds on a warm session),
/// `sketch.build_ms.<protocol>` (fresh minus repeated seed, whose
/// sketches the session's cache already holds) and
/// `core.warm_views_ms`.
pub fn core_probe(
    pair: &Pair,
    mix: &[EstimateRequest],
    seed: u64,
    out: &mut BTreeMap<String, f64>,
) {
    let session = Session::new(pair.a.clone(), pair.b.clone());
    session.warm_views().expect("probe pair dims");
    let mut rng = Rng::new(seed ^ 0x0070_726f_6265);
    let mut seen: Vec<&str> = Vec::new();
    for request in mix {
        let name = request.name();
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        let run = |s: u64| {
            black_box(
                session
                    .estimate_seeded(request, Seed(s))
                    .expect("probe query failed"),
            );
        };
        let fresh: Vec<f64> = (0..REPS)
            .map(|_| {
                let s = rng.next_u64();
                time_ms(|| run(s))
            })
            .collect();
        out.insert(format!("core.query_ms.{name}"), median(&fresh));
        if SKETCH_PROTOCOLS.contains(&name) {
            let s = rng.next_u64();
            run(s);
            let repeated: Vec<f64> = (0..REPS).map(|_| time_ms(|| run(s))).collect();
            out.insert(
                format!("sketch.build_ms.{name}"),
                median(&fresh) - median(&repeated),
            );
        }
    }
    let warm: Vec<f64> = (0..REPS)
        .map(|_| {
            let fresh = Session::new(pair.a.clone(), pair.b.clone());
            time_ms(|| fresh.warm_views().expect("probe pair dims"))
        })
        .collect();
    out.insert("core.warm_views_ms".into(), median(&warm));
}

/// `comm.encode_ns_per_bit` and `comm.decode_ns_per_bit`:
/// `BitWriter::write_bits` / `BitReader::read_bits` at 61-bit width
/// over a message of `bits_per_query` bits, repeated to at least 4 Mbit
/// a sample so the clock's resolution does not show.
pub fn codec_probe(bits_per_query: f64, seed: u64, out: &mut BTreeMap<String, f64>) {
    let values = ((bits_per_query / f64::from(WIDTH)).ceil() as usize).max(1);
    let repeat = (4_000_000 / (values * WIDTH as usize)).max(1);
    let mut rng = Rng::new(seed ^ 0x0063_6f64_6563);
    let data: Vec<u64> = (0..values)
        .map(|_| rng.next_u64() >> (64 - WIDTH))
        .collect();
    let bits = (values * repeat) as f64 * f64::from(WIDTH);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut buffers = Vec::with_capacity(repeat);
        enc.push(time_ms(|| {
            for _ in 0..repeat {
                let mut w = BitWriter::with_capacity_bits(values * WIDTH as usize);
                for &v in &data {
                    w.write_bits(v, WIDTH);
                }
                buffers.push(w.finish_vec().0);
            }
        }));
        let mut check = 0u64;
        dec.push(time_ms(|| {
            for buf in &buffers {
                let mut r = BitReader::new(buf);
                for _ in 0..values {
                    check ^= r.read_bits(WIDTH).expect("probe message is long enough");
                }
            }
        }));
        black_box(check);
    }
    let enc_ns = median(&enc) * 1e6 / bits;
    let dec_ns = median(&dec) * 1e6 / bits;
    out.insert("comm.encode_ns_per_bit".into(), enc_ns);
    out.insert("comm.decode_ns_per_bit".into(), dec_ns);
    out.insert(
        "comm.codec_ms_per_query".into(),
        bits_per_query * (enc_ns + dec_ns) / 1e6,
    );
}
