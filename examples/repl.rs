//! An interactive SQL shell over a TDP session.
//!
//! The paper positions TDP next to DuckDB as an embeddable analytical
//! engine; this binary is the `duckdb`-style shell for it. It boots a
//! session pre-loaded with demo tables (relational, image and audio
//! columns, with the image and audio similarity UDFs registered) and
//! accepts SQL plus a few meta-commands:
//!
//! ```text
//! .tables               list registered tables
//! .schema <table>       column names, encodings, rows
//! .explain <sql>        optimised plan without executing
//! .profile <sql>        execute with the per-operator profiler
//! .save <table> <path>  write a table as TDPF
//! .open <path>          register a TDPF file
//! .quit
//! ```
//!
//! Run with: `cargo run --release -p tdp-examples --bin repl`
//! (pipe SQL on stdin for scripted use: `echo "SELECT 1+1 FROM demo" | …`).
//! The session starts at the engine's defaults; `TDP_THREADS` and
//! `TDP_MORSEL_ROWS` set its worker count and morsel size, so the tiny
//! demo tables can be split across workers (`TDP_THREADS=4
//! TDP_MORSEL_ROWS=2`).

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Rng64;
use tdp_core::Tdp;
use tdp_data::attachments::generate_attachments;
use tdp_data::audio::generate_audio;
use tdp_examples::timed;
use tdp_ml::{audio, clip, TextSimilarityUdf};

fn boot() -> Tdp {
    let mut rng = Rng64::new(7);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0, 2.5])
            .col_str("item", &["book", "bag", "bag", "candle", "book", "candle"])
            .col_i64("qty", vec![10, 20, 30, 40, 50, 60])
            .build("demo"),
    );
    let att = generate_attachments(60, 24, 36, &mut rng);
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("images", att.images)
            .col_i64("id", (0..60).collect())
            .build("attachments"),
    );
    let au = generate_audio(40, &mut rng);
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("clip", au.clips)
            .col_i64("id", (0..40).collect())
            .build("sounds"),
    );
    // Both similarity UDFs declare parallel-safe signatures, so chains
    // applying them morselize across the worker pool.
    tdp.register_udf_parallel(Arc::new(TextSimilarityUdf::new(clip::pretrained(
        24, 36, 6, 7,
    ))));
    tdp.register_udf_parallel(Arc::new(TextSimilarityUdf::new(audio::pretrained(6, 7))));
    // The shell's own settings: the library reads no environment.
    let knob = |key| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
    };
    if let Some(n) = knob("TDP_THREADS") {
        tdp.set_threads(n);
    }
    if let Some(n) = knob("TDP_MORSEL_ROWS") {
        tdp.set_morsel_rows(n);
    }
    tdp
}

fn list_tables(tdp: &Tdp) {
    for name in tdp.catalog().names() {
        let t = tdp.catalog().get(&name).expect("listed");
        println!(
            "  {name}  ({} rows, {} columns)",
            t.rows(),
            t.columns().len()
        );
    }
}

fn schema(tdp: &Tdp, table: &str) {
    match tdp.catalog().get(table) {
        None => println!("no such table: {table}"),
        Some(t) => {
            println!("{table}: {} rows, ~{} bytes", t.rows(), t.memory_bytes());
            for c in t.columns() {
                let shape = c.data.row_shape();
                let payload = if shape.is_empty() {
                    String::new()
                } else {
                    format!("  row shape {shape:?}")
                };
                println!("  {:<12} {:?}{payload}", c.name, c.kind());
            }
        }
    }
}

fn run_sql(tdp: &Tdp, sql: &str) {
    match tdp.query(sql) {
        Err(e) => println!("error: {e}"),
        Ok(q) => {
            let started = std::time::Instant::now();
            match q.run() {
                Err(e) => println!("error: {e}"),
                Ok(table) => {
                    println!("{}", table.pretty(20));
                    if table.rows() > 20 {
                        println!("… {} rows total", table.rows());
                    }
                    println!("({:.3} ms)", started.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
}

fn main() {
    let tdp = boot();
    println!("tdp-rs SQL shell — .help for commands, .quit to exit");
    println!(
        "demo tables: demo, attachments (images + CLIP-sim UDF), sounds (audio + similarity UDF)\n"
    );

    let stdin = io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("tdp> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.splitn(3, ' ');
            match parts.next().unwrap_or("") {
                "quit" | "exit" => break,
                "help" => println!(
                    ".tables | .schema <t> | .explain <sql> | .profile <sql> | \
                     .save <t> <path> | .open <path> | .quit"
                ),
                "tables" => list_tables(&tdp),
                "schema" => schema(&tdp, parts.next().unwrap_or("")),
                "explain" => {
                    let sql = rest["explain".len()..].trim();
                    match tdp.query(sql) {
                        Ok(q) => print!("{}", q.explain()),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "profile" => {
                    let sql = rest["profile".len()..].trim();
                    match tdp.query(sql).and_then(|q| q.run_profiled()) {
                        Ok((table, profile)) => {
                            println!("{}", table.pretty(10));
                            print!("{}", profile.pretty());
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                "save" => {
                    let (t, p) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                    match tdp.save_table(t, p) {
                        Ok(()) => println!("wrote {p}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "open" => match tdp.register_file(parts.next().unwrap_or("")) {
                    Ok(name) => println!("registered '{name}'"),
                    Err(e) => println!("error: {e}"),
                },
                other => println!("unknown command .{other} (.help lists commands)"),
            }
            continue;
        }
        let (_, _secs) = timed(|| run_sql(&tdp, line));
    }
}

/// Crude interactivity probe without a libc dependency: scripted runs set
/// TERM=dumb or pipe stdin, where prompts only add noise.
fn atty_stdin() -> bool {
    std::env::var("TDP_REPL_PROMPT")
        .map(|v| v != "0")
        .unwrap_or(true)
}
