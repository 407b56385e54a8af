//! Per-layer measurements: timed calls into each crate's public
//! functions, each batch under a benchmark-side `bench.<layer>.<call>`
//! span, reported as the median of several repetitions.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ntc::api::{OptimizeRequest, QueryRequest};
use ntc::artifact::json::parse;
use ntc::artifact::Artifact;
use ntc::repro::Scale;
use ntc::store::{ArtifactKey, Store};
use ntc_serve::query::{eval, Models};
use ntc_sram::failure::{AccessLaw, RetentionLaw};

use crate::metrics::Metrics;
use crate::serve::QueryPool;
use crate::stats::{median, Rng};

const REPS: usize = 5;

/// Runs `f` `REPS` times under span `name`; returns the median seconds.
fn timed(name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let _span = ntc_obs::span(name);
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// Measures every layer kernel. `artifacts` are this run's artifacts
/// (the JSON and store layers work on them). Returns the number of
/// layer outputs that failed their check.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn measure(
    out: &mut Metrics,
    seed: u64,
    artifacts: &[Artifact],
    pool: &QueryPool,
    scratch: &Path,
) -> Result<u64, String> {
    let mut failed = 0;
    let mut rng = Rng::new(seed, 0x006c_6179_6572);

    // stats: the counter-based lane kernel.
    let lanes = 1u64 << 24;
    let key = rng.next_u64();
    let s = timed("bench.stats.count_lane_below", || {
        black_box(ntc_stats::batch::count_lane_below(
            black_box(key),
            0,
            lanes,
            1e-3,
        ));
    });
    out.set("stats.lane_samples_per_s", lanes as f64 / s);

    // sim: fig5's injector, scalar and block paths, at fig5's voltages.
    let grid = ntc_stats::sweep::voltage_grid(0.30, 0.54, 20);
    let cell = AccessLaw::cell_based_40nm();
    let per_v = 20_000usize;
    let (mut scalar_flips, mut block_flips) = (0u64, 0u64);
    let s = timed("bench.sim.mask", || {
        scalar_flips = 0;
        for (k, &v) in grid.iter().enumerate() {
            let mut inj = ntc_sim::FaultInjector::from_law(&cell, v, seed ^ k as u64);
            for _ in 0..per_v {
                scalar_flips += u64::from(inj.mask(32).count_ones());
            }
        }
    });
    let calls = (grid.len() * per_v) as f64;
    out.set("sim.mask_ns", s / calls * 1e9);
    let mut buf = vec![0u128; per_v];
    let s = timed("bench.sim.mask_block", || {
        block_flips = 0;
        for (k, &v) in grid.iter().enumerate() {
            let mut inj = ntc_sim::FaultInjector::from_law(&cell, v, seed ^ k as u64);
            inj.mask_block(32, &mut buf);
            block_flips += buf.iter().map(|m| u64::from(m.count_ones())).sum::<u64>();
        }
    });
    out.set("sim.mask_block_ns", s / calls * 1e9);
    if scalar_flips != block_flips || scalar_flips == 0 {
        eprintln!("sim: mask_block flipped {block_flips} bits, mask {scalar_flips}");
        failed += 1;
    }

    // sim: the FFT workload profile the `profile` experiment runs.
    {
        use ntc_sim::fft::{fft_program, random_input, scratchpad_words, twiddle_table};
        let n = 1024;
        let program = ntc_sim::asm::assemble(&fft_program(n)).map_err(|e| e.to_string())?;
        let mut cycles = Vec::new();
        let s = timed("bench.sim.profile", || {
            let mut mem = ntc_sim::RawMemory::new(scratchpad_words(n).next_power_of_two());
            for (i, &w) in random_input(n, seed)
                .iter()
                .chain(twiddle_table(n).iter())
                .enumerate()
            {
                mem.store(i, w);
            }
            let p = ntc_sim::profile::profile(&program, &mut mem, u64::MAX);
            cycles.push(p.map(|p| p.cycles).ok());
        });
        out.set("sim.profile_ms", s * 1e3);
        if cycles.iter().any(|c| c.is_none() || *c != cycles[0]) {
            eprintln!("sim: FFT profile failed or varied: {cycles:?}");
            failed += 1;
        }
    }

    // sram: Eq. 4/5 points and fig4-size die maps.
    let volts: Vec<f64> = (0..1000).map(|_| 0.2 + 0.9 * rng.uniform()).collect();
    let laws_a = [AccessLaw::commercial_40nm(), AccessLaw::cell_based_40nm()];
    let laws_r = [
        RetentionLaw::commercial_40nm(),
        RetentionLaw::cell_based_40nm(),
    ];
    let s = timed("bench.sram.p_bit", || {
        for &v in &volts {
            for l in &laws_a {
                black_box(l.p_bit(black_box(v)));
            }
            for l in &laws_r {
                black_box(l.p_bit(black_box(v)));
            }
        }
    });
    out.set("sram.p_bit_ns", s / (volts.len() * 4) as f64 * 1e9);
    let cfg = ntc_sram::diemap::DieMapConfig::new(128, 256, RetentionLaw::cell_based_40nm());
    let die_seed = rng.next_u64();
    let s = timed("bench.sram.diemap", || {
        let mut src = ntc_stats::rng::Source::seeded(die_seed);
        black_box(ntc_sram::diemap::DieMap::synthesize(&cfg, &mut src));
    });
    out.set("sram.diemap_ms", s * 1e3);

    // memcalc: the uncached energy model.
    let soc = ntc_memcalc::soc::SocEnergyModel::exg_processor_40nm();
    let s = timed("bench.memcalc.energy", || {
        for &v in &volts {
            black_box(
                soc.operating_point(black_box(0.35 + 0.75 * (v - 0.2) / 0.9))
                    .total_j(),
            );
        }
    });
    out.set("memcalc.energy_ns", s / volts.len() as f64 * 1e9);

    // ecc: SECDED decode of single-error codewords.
    let code = ntc_ecc::secded::Secded::new(32).map_err(|e| format!("{e:?}"))?;
    let words: Vec<(u64, u128)> = (0..4096)
        .map(|_| {
            let data = rng.next_u64() & 0xffff_ffff;
            let bit = rng.below(code.codeword_bits() as usize);
            (data, code.encode(data) ^ (1u128 << bit))
        })
        .collect();
    let mut wrong = 0;
    let s = timed("bench.ecc.secded_decode", || {
        wrong = words
            .iter()
            .filter(|&&(d, cw)| code.decode(black_box(cw)).data() != Some(d))
            .count();
    });
    out.set("ecc.secded_decode_ns", s / words.len() as f64 * 1e9);
    if wrong > 0 {
        eprintln!("ecc: {wrong} single-error codewords decoded wrongly");
        failed += 1;
    }

    // core: artifact JSON both ways, on this run's artifacts.
    let jsons: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
    let bytes: usize = jsons.iter().map(String::len).sum();
    let mut reparsed_ok = true;
    let s = timed("bench.core.json_parse", || {
        for j in &jsons {
            reparsed_ok &= parse(black_box(j)).is_ok();
        }
    });
    out.set("core.json_parse_mb_per_s", bytes as f64 / 1e6 / s);
    let s = timed("bench.core.json_encode", || {
        for a in artifacts {
            black_box(a.to_json());
        }
    });
    out.set("core.json_encode_mb_per_s", bytes as f64 / 1e6 / s);
    let round_trip = artifacts
        .iter()
        .zip(&jsons)
        .all(|(a, j)| Artifact::from_json(j).is_ok_and(|b| b.to_json() == *j && b.id == a.id));
    if !(reparsed_ok && round_trip) {
        eprintln!("core: artifact JSON did not round-trip");
        failed += 1;
    }

    // core + serve: query decode and evaluation, without HTTP.
    let singles: Vec<&String> = pool
        .bodies
        .iter()
        .zip(&pool.single)
        .filter(|(_, &s)| s)
        .map(|(b, _)| b)
        .collect();
    let s = timed("bench.core.query_decode", || {
        for b in &singles {
            let v = parse(black_box(b)).expect("pool bodies parse");
            black_box(QueryRequest::from_json_value(&v).expect("pool bodies decode"));
        }
    });
    out.set("core.query_decode_ns", s / singles.len() as f64 * 1e9);
    let decoded: Vec<QueryRequest> = singles
        .iter()
        .map(|b| QueryRequest::from_json_value(&parse(b).expect("parses")).expect("decodes"))
        .collect();
    let models = Models::paper();
    let s = timed("bench.serve.query_eval", || {
        for q in &decoded {
            black_box(eval(black_box(q), &models).expect("pool queries evaluate"));
        }
    });
    out.set("serve.query_eval_us", s / decoded.len() as f64 * 1e6);

    // core: the autotuner at the paper's 290 kHz preset.
    let req = OptimizeRequest::paper(290e3);
    let mut evals = 0;
    let mut feasible = true;
    let s = timed("bench.core.optimize", || {
        let r = ntc::optimize::optimize(&req);
        evals = r.convergence.evaluations;
        feasible &= r.best.is_some_and(|b| (b.vdd - 0.33).abs() < 1e-9);
    });
    out.set("core.optimize_ms", s * 1e3);
    #[allow(clippy::cast_precision_loss)]
    out.set("core.optimize_evals", evals as f64);
    if !feasible {
        eprintln!("core: optimize at 290 kHz missed Table 2's 0.33 V");
        failed += 1;
    }

    // core: store publication and verified reads.
    let store =
        Store::open(crate::serve::fresh_dir(scratch, "layer-store")?).map_err(|e| e.to_string())?;
    let keys: Vec<ArtifactKey> = artifacts
        .iter()
        .map(|a| ArtifactKey::new(&a.id, Scale::Quick, seed))
        .collect();
    let mut published = true;
    let s = timed("bench.core.store_publish", || {
        for (k, j) in keys.iter().zip(&jsons) {
            published &= store.put_artifact(k, j).is_ok();
        }
    });
    out.set("core.store_publish_ms", s / keys.len() as f64 * 1e3);
    let mut read_back = true;
    let s = timed("bench.core.store_read", || {
        for (k, j) in keys.iter().zip(&jsons) {
            read_back &= store.get_artifact(k).as_deref() == Some(j.as_str());
        }
    });
    out.set("core.store_read_ms", s / keys.len() as f64 * 1e3);
    if !(published && read_back) {
        eprintln!("core: the store did not return what was published");
        failed += 1;
    }
    Ok(failed)
}
