//! Ad-hoc query runner: parse a query from the command line, generate
//! synthetic data for its relations, plan and execute it.
//!
//! ```sh
//! cargo run --release --example query_cli -- "R1 overlaps R2 and R2 before R3"
//! cargo run --release --example query_cli -- "A.I contains B.I and A.k = B.k" 2000
//! ```
//!
//! Optional second argument: tuples per relation (default 1000).

use interval_joins_mr::datagen::{Distribution, SynthConfig};
use interval_joins_mr::join::estimate::auto_tune;
use interval_joins_mr::join::plan;
use interval_joins_mr::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let text = args.next().unwrap_or_else(|| {
        eprintln!("usage: query_cli \"<query>\" [tuples-per-relation]");
        std::process::exit(2);
    });
    let n: usize = args
        .next()
        .map(|s| s.parse().expect("tuple count"))
        .unwrap_or(1000);

    let query = match parse_query(&text) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("cannot parse query: {e}");
            std::process::exit(2);
        }
    };
    println!("query: {query}");
    println!(
        "class: {}   components: {}",
        query.class(),
        query.components().len()
    );
    if query.start_order().contradictory() {
        println!("note: the query's orders are contradictory — output will be empty");
    }

    // Synthetic data: interval attributes from the Table 1 generator,
    // real-valued attributes (anything named without intervals joining on
    // equals) from a small uniform domain.
    let mut rng = StdRng::seed_from_u64(1);
    let relations: Vec<Relation> = query
        .relations()
        .iter()
        .enumerate()
        .map(|(r, meta)| {
            let base = SynthConfig {
                n,
                ds: Distribution::Uniform,
                di: Distribution::Uniform,
                t_min: 0,
                t_max: 10_000,
                i_min: 1,
                i_max: 200,
                seed: 100 + r as u64,
            }
            .generate(meta.name.clone());
            if meta.attr_names.len() == 1 {
                base
            } else {
                // Widen with extra attributes: alternate interval / point.
                Relation::from_rows(
                    meta.name.clone(),
                    base.tuples().iter().map(|t| {
                        let mut attrs = vec![t.interval()];
                        for _ in 1..meta.attr_names.len() {
                            attrs.push(Interval::point(rng.gen_range(0..50)));
                        }
                        attrs
                    }),
                )
            }
        })
        .collect();
    let input = JoinInput::bind_owned(&query, relations).expect("generated data fits query");

    let engine = Engine::new(ClusterConfig::with_slots(16));
    // Pick partition counts so the consistent reducers track the slots.
    let mut cfg = auto_tune(&query, 16);
    cfg.mode = OutputMode::Count;
    let alg = plan(&query, cfg);
    println!(
        "algorithm: {} (partitions={}, per_dim={})\n",
        alg.name(),
        cfg.partitions,
        cfg.per_dim
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "prints the query's wall time; it never reaches job output"
    )]
    let start = std::time::Instant::now();
    let out = alg
        .run(&query, &input, &engine)
        .expect("planner picks a supported algorithm");

    println!("output tuples: {}", out.count);
    println!("wall time:     {:.3}s", start.elapsed().as_secs_f64());
    println!("MR cycles:     {}", out.chain.num_cycles());
    for c in &out.chain.cycles {
        println!(
            "  {:<16} pairs={:<9} reducers={:<5} skew={:.2} simulated={:.0}",
            c.name,
            c.intermediate_pairs,
            c.distinct_reducers,
            c.skew(),
            c.simulated
        );
    }
    if let Some((used, total)) = out.stats.consistent_cells {
        println!("consistent reducers: {used} of {total}");
    }
    if let Some(r) = out.stats.replicated_intervals {
        println!("replicated intervals: {r}");
    }
}
