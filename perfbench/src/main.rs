//! One repetition of one benchmark workload.
//!
//! ```text
//! perfbench --workload <fv_fig2|cap_churn|ring|ring_sharded> --seed <n> [--traced]
//! ```
//!
//! Prints one JSON object with the repetition's raw measurements: host
//! set-up and run time, the modelled (virtual-time) outcome, traffic, the
//! output-check verdicts and, with `--traced`, per-layer host timing.
//! `run.py` repeats it, checks determinism across repetitions and derives
//! the benchmark's metrics.

mod traced;
mod workloads;

use fractos_obs::Json;

use crate::traced::{LayerCost, CTRL_KEYS, LAYERS};
use crate::workloads::{Rep, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> [--traced]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn cost(c: LayerCost) -> Json {
    Json::obj(vec![
        ("events", Json::UInt(c.events)),
        ("ns", Json::UInt(c.ns)),
    ])
}

fn to_json(rep: &Rep) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(rep.workload.into())),
        ("backend", Json::Str(rep.backend.into())),
        ("workers", Json::UInt(rep.workers as u64)),
        ("seed", Json::UInt(rep.seed)),
        ("ops", Json::UInt(rep.ops)),
        ("verified", Json::UInt(rep.verified)),
        (
            "failures",
            Json::Arr(rep.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("setup_s", Json::Num(rep.setup_s)),
        ("run_s", Json::Num(rep.run_s)),
        ("events", Json::UInt(rep.events)),
        ("sim_span_ns", Json::UInt(rep.sim_span_ns)),
        ("lat_p50_ns", Json::UInt(rep.lat_p50_ns)),
        ("lat_p99_ns", Json::UInt(rep.lat_p99_ns)),
        ("net_msgs", Json::UInt(rep.net_msgs)),
        ("net_bytes", Json::UInt(rep.net_bytes)),
        ("net_wire_bytes", Json::UInt(rep.net_wire_bytes)),
        ("net_data_msgs", Json::UInt(rep.net_data_msgs)),
        ("live_caps", Json::UInt(rep.live_caps)),
        ("shards", Json::UInt(rep.shards)),
        ("sharded_rounds", Json::UInt(rep.sharded_rounds)),
        ("sharded_stalled", Json::UInt(rep.sharded_stalled)),
    ];
    if let Some(r) = &rep.layers {
        let layers = LAYERS
            .iter()
            .zip(&r.layers)
            .map(|(l, &c)| (format!("{l:?}").to_lowercase(), cost(c)))
            .collect();
        let keys = CTRL_KEYS
            .iter()
            .zip(&r.ctrl_keys)
            .map(|(k, &c)| (k.to_string(), cost(c)))
            .collect();
        fields.push((
            "trace",
            Json::obj(vec![
                ("busy_ns", Json::UInt(r.busy_ns())),
                ("layers", Json::Obj(layers)),
                ("ctrl", Json::Obj(keys)),
                ("wire_msgs", Json::UInt(r.wire_msgs)),
                ("wire_ns", Json::UInt(r.wire_ns)),
                ("wire_bytes", Json::UInt(r.wire_bytes)),
            ]),
        ));
    }
    Json::obj(fields)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--traced" => trace = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    let Some(rep) = workloads::run(&workload, seed, trace) else {
        usage()
    };
    println!("{}", to_json(&rep));
}
