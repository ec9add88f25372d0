//! `eip` — the Entropy/IP command-line tool.
//!
//! Mirrors the original project's workflow: feed it a file of IPv6
//! addresses, get the analysis, and optionally a saved model or
//! generated scan targets.
//!
//! ```text
//! eip analyze ips.txt                  # entropy plot + dictionaries + BN
//! eip analyze ips.txt --top64          # prefix (top-64-bit) mode
//! eip generate ips.txt -n 10000        # candidate targets, one per line
//! eip generate ips.txt -n 1000000 --jobs 8   # parallel batched sampling
//! eip export ips.txt > model.txt       # train and print the text profile
//! eip dot ips.txt > bn.dot             # BN graph for Graphviz
//!
//! # Train once, serve millions (binary .eipm containers + daemon):
//! eip analyze ips.txt --model-out models/S1.eipm   # train and persist
//! eip generate --model-in models/S1.eipm -n 1000   # reuse, no retraining
//! eip serve models --port 3164                     # daemon over the fleet
//! eip query 127.0.0.1:3164 GEN S1 100 seed=7       # one protocol request
//! ```
//!
//! Input files are ingested through the bounded-memory parallel
//! streaming engine ([`Pipeline::profile_path_with`]): the file is
//! read in fixed-size newline-aligned chunks that fan out across the
//! worker threads, so peak memory stays O(chunk size × workers) plus
//! the deduplicated set — independent of file length. `--chunk-mb N`
//! sets the chunk size (default 4 MiB); `--chunk-mb 0` selects the
//! serial one-line-at-a-time oracle the engine is verified against.
//! Ingest throughput goes to stderr so stdout stays byte-stable.
//!
//! All failures flow through [`EipError`] and a single exit point:
//! usage errors exit 2, runtime errors (I/O, parse, empty input)
//! exit 1.

use std::fs::File;
use std::io::BufReader;
use std::process::exit;

use entropy_ip::{
    profile, store, Browser, Config, EipError, Generator, IngestOptions, IpModel, Pipeline,
};

fn main() {
    exit(match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, EipError::Usage(_)) {
                eprintln!("run `eip help` for usage");
            }
            e.exit_code()
        }
    });
}

fn run() -> Result<(), EipError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return Err(EipError::Usage("missing command".into()));
    };
    match cmd.as_str() {
        "analyze" => analyze(&parse(&args[1..])?),
        "generate" => generate(&parse(&args[1..])?),
        "export" => export(&parse(&args[1..])?),
        "dot" => dot(&parse(&args[1..])?),
        "serve" => serve(&parse(&args[1..])?),
        "query" => query(&args[1..]),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        "--version" | "-V" | "version" => {
            println!("eip {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        other => {
            usage();
            Err(EipError::Usage(format!("unknown command {other}")))
        }
    }
}

/// Shared option bag for all subcommands.
struct Cli {
    input: Option<String>,
    model_in: Option<String>,
    model_out: Option<String>,
    top64: bool,
    chunk_mb: usize,
    n: usize,
    seed: u64,
    min_prob: f64,
    jobs: usize,
    port: u16,
    capacity: usize,
    max_line_mb: usize,
    max_conns: usize,
    max_gen: usize,
    timeout_secs: u64,
}

fn parse(args: &[String]) -> Result<Cli, EipError> {
    let mut cli = Cli {
        input: None,
        model_in: None,
        model_out: None,
        top64: false,
        chunk_mb: 4,
        n: 1000,
        seed: 1,
        min_prob: 0.005,
        jobs: 1,
        port: 0,
        capacity: 16,
        max_line_mb: eip_addr::chunk::DEFAULT_MAX_LINE_BYTES >> 20,
        max_conns: eip_serve::Limits::default().max_conns,
        max_gen: eip_serve::Limits::default().max_gen,
        timeout_secs: 30,
    };
    let mut i = 0;
    let operand = |args: &[String], i: usize, flag: &str| -> Result<String, EipError> {
        args.get(i)
            .cloned()
            .ok_or_else(|| EipError::Usage(format!("{flag} needs an operand")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--top64" => cli.top64 = true,
            "--chunk-mb" => {
                i += 1;
                cli.chunk_mb = operand(args, i, "--chunk-mb")?
                    .parse()
                    .map_err(|_| EipError::Usage("--chunk-mb needs a number of MiB".into()))?;
            }
            "--model-in" => {
                i += 1;
                cli.model_in = Some(operand(args, i, "--model-in")?);
            }
            "--model-out" => {
                i += 1;
                cli.model_out = Some(operand(args, i, "--model-out")?);
            }
            "--port" => {
                i += 1;
                cli.port = operand(args, i, "--port")?
                    .parse()
                    .map_err(|_| EipError::Usage("--port needs a port number".into()))?;
            }
            "--capacity" => {
                i += 1;
                cli.capacity = operand(args, i, "--capacity")?
                    .parse()
                    .map_err(|_| EipError::Usage("--capacity needs a number".into()))?;
            }
            "--max-line-mb" => {
                i += 1;
                cli.max_line_mb = operand(args, i, "--max-line-mb")?
                    .parse()
                    .map_err(|_| EipError::Usage("--max-line-mb needs a number of MiB".into()))?;
            }
            "--max-conns" => {
                i += 1;
                cli.max_conns = operand(args, i, "--max-conns")?
                    .parse()
                    .map_err(|_| EipError::Usage("--max-conns needs a number".into()))?;
            }
            "--max-gen" => {
                i += 1;
                cli.max_gen = operand(args, i, "--max-gen")?
                    .parse()
                    .map_err(|_| EipError::Usage("--max-gen needs a number".into()))?;
            }
            "--timeout-secs" => {
                i += 1;
                cli.timeout_secs = operand(args, i, "--timeout-secs")?.parse().map_err(|_| {
                    EipError::Usage("--timeout-secs needs a number of seconds (0 = none)".into())
                })?;
            }
            "-n" | "--count" => {
                i += 1;
                cli.n = operand(args, i, "-n")?
                    .parse()
                    .map_err(|_| EipError::Usage("-n needs a number".into()))?;
            }
            "--seed" => {
                i += 1;
                cli.seed = operand(args, i, "--seed")?
                    .parse()
                    .map_err(|_| EipError::Usage("--seed needs a number".into()))?;
            }
            "--min-prob" => {
                i += 1;
                cli.min_prob = operand(args, i, "--min-prob")?
                    .parse()
                    .map_err(|_| EipError::Usage("--min-prob needs a float".into()))?;
            }
            "--jobs" => {
                i += 1;
                cli.jobs = operand(args, i, "--jobs")?
                    .parse()
                    .map_err(|_| EipError::Usage("--jobs needs a number".into()))?;
            }
            flag if flag.starts_with('-') => {
                return Err(EipError::Usage(format!("unknown flag {flag}")));
            }
            path => {
                if cli.input.replace(path.to_string()).is_some() {
                    return Err(EipError::Usage("multiple input files".into()));
                }
            }
        }
        i += 1;
    }
    Ok(cli)
}

/// The pipeline a command-line configuration implies.
fn pipeline(cli: &Cli) -> Pipeline {
    let cfg = if cli.top64 {
        Config::top64()
    } else {
        Config::default()
    };
    Pipeline::new(cfg.with_parallelism(cli.jobs))
}

/// Loads a model — from a binary `.eipm` container (`--model-in`),
/// or by training on the input file via the streaming ingestion engine (or the serial
/// oracle with `--chunk-mb 0`). Returns the model plus its
/// provenance fingerprint (for `--model-out`).
fn load_model(cli: &Cli) -> Result<(IpModel, u64), EipError> {
    if let Some(path) = &cli.model_in {
        return store::load_file(path);
    }
    let path = cli
        .input
        .as_ref()
        .ok_or_else(|| EipError::Usage("need an address file or --model-in".into()))?;
    let profiled = if cli.chunk_mb == 0 {
        let file = File::open(path).map_err(|e| EipError::io(path, e))?;
        pipeline(cli).profile_lines(BufReader::new(file))?
    } else {
        let opts = IngestOptions::chunk_mib(cli.chunk_mb).with_max_line_mib(cli.max_line_mb);
        let (profiled, report) = pipeline(cli).profile_path_with(path, &opts)?;
        eprintln!("{}", report.summary());
        profiled
    };
    let model = profiled.segment().mine().train()?.into_model();
    let fp = store::fingerprint(&format!(
        "input={path} top64={} n_addresses={}",
        cli.top64,
        model.analysis().num_addresses
    ));
    Ok((model, fp))
}

/// Persists the model as a binary container if `--model-out` was
/// given.
fn maybe_save(cli: &Cli, model: &IpModel, fingerprint: u64) -> Result<(), EipError> {
    if let Some(path) = &cli.model_out {
        store::save_file(path, model, fingerprint)?;
        eprintln!("model written to {path}");
    }
    Ok(())
}

fn analyze(cli: &Cli) -> Result<(), EipError> {
    let (model, fp) = load_model(cli)?;
    maybe_save(cli, &model, fp)?;
    println!("{}", eip_viz::render_entropy_ascii(model.analysis(), 12));
    let browser = Browser::new(&model);
    println!(
        "{}",
        eip_viz::render_browser(&browser.distributions(), cli.min_prob)
    );
    let edges: Vec<String> = model
        .bn()
        .edges()
        .iter()
        .map(|&(p, c)| format!("{}->{}", model.bn().node(p).name, model.bn().node(c).name))
        .collect();
    println!(
        "BN dependencies: {}",
        if edges.is_empty() {
            "none".into()
        } else {
            edges.join(", ")
        }
    );
    Ok(())
}

fn generate(cli: &Cli) -> Result<(), EipError> {
    let (model, fp) = load_model(cli)?;
    maybe_save(cli, &model, fp)?;
    let report = Generator::new(&model)
        .parallelism(cli.jobs)
        .run_seeded(cli.n, cli.seed);
    for ip in &report.candidates {
        println!("{ip}");
    }
    Ok(())
}

fn export(cli: &Cli) -> Result<(), EipError> {
    let (model, fp) = load_model(cli)?;
    maybe_save(cli, &model, fp)?;
    print!("{}", profile::export(&model));
    Ok(())
}

fn dot(cli: &Cli) -> Result<(), EipError> {
    let (model, fp) = load_model(cli)?;
    maybe_save(cli, &model, fp)?;
    print!("{}", eip_viz::bn_to_dot(model.bn(), None));
    Ok(())
}

/// `eip serve <models-dir>`: the model-service daemon. Binds
/// loopback, announces the bound address on stdout (port 0 gives an
/// ephemeral port, so scripts parse the line), then serves until
/// killed.
fn serve(cli: &Cli) -> Result<(), EipError> {
    use std::io::Write;
    let dir = cli
        .input
        .as_ref()
        .ok_or_else(|| EipError::Usage("serve needs a models directory".into()))?;
    let store = eip_serve::ModelStore::open(dir)?;
    let networks = store.list()?;
    let timeout = std::time::Duration::from_secs(cli.timeout_secs);
    let limits = eip_serve::Limits {
        max_conns: cli.max_conns,
        max_gen: cli.max_gen,
        read_timeout: timeout,
        write_timeout: timeout,
        ..eip_serve::Limits::default()
    };
    let service = std::sync::Arc::new(eip_serve::Service::with_limits(
        eip_serve::Registry::new(store, cli.capacity),
        cli.seed,
        limits,
    ));
    let server = eip_serve::spawn(service, ("127.0.0.1", cli.port))?;
    println!("listening on {}", server.local_addr());
    println!(
        "serving {} model(s): {}",
        networks.len(),
        if networks.is_empty() {
            "-".to_string()
        } else {
            networks.join(", ")
        }
    );
    std::io::stdout().flush().ok();
    server.wait();
    Ok(())
}

/// `eip query <host:port> <request words…>`: one protocol request,
/// response lines on stdout (the `.` terminator stripped).
fn query(args: &[String]) -> Result<(), EipError> {
    let addr = args
        .first()
        .ok_or_else(|| EipError::Usage("query needs <host:port>".into()))?;
    let request = args[1..].join(" ");
    if request.trim().is_empty() {
        return Err(EipError::Usage(
            "query needs a request, e.g. eip query 127.0.0.1:3164 STATS".into(),
        ));
    }
    let mut client =
        eip_serve::Client::connect(addr.as_str()).map_err(|e| EipError::io(addr, e))?;
    for line in client
        .request(&request)
        .map_err(|e| EipError::io(addr, e))?
    {
        println!("{line}");
    }
    Ok(())
}

fn usage() {
    println!(
        "eip — Entropy/IP: discover structure in IPv6 address sets (IMC 2016)\n\n\
         usage: eip <command> [file] [flags]\n\n\
         commands:\n\
           analyze <file>     entropy/ACR plot, dictionaries, browser, BN\n\
           generate <file>    print candidate scan targets\n\
           export <file>      train and print the model as a text profile\n\
           dot <file>         print the BN as Graphviz DOT\n\
           serve <dir>        model-service daemon over a directory of .eipm files\n\
           query <addr> <req> send one protocol request (BROWSE/GEN/PREDICT64/STATS)\n\
           version            print the version\n\n\
         flags:\n\
           --top64            analyze only the top 64 bits (prefix mode)\n\
           --chunk-mb <N>     streaming ingest chunk size in MiB (default 4;\n\
                              0 = serial one-line-at-a-time ingestion)\n\
           --model-in <path>  load a binary .eipm model instead of training\n\
           --model-out <path> persist the model as a binary .eipm container\n\
           -n, --count <N>    number of candidates to generate (default 1000)\n\
           --seed <N>         RNG seed / serve base seed (default 1)\n\
           --min-prob <F>     hide dictionary rows below this probability\n\
           --jobs <N>         worker threads for mining/generation (default 1)\n\
           --max-line-mb <N>  ingest: abort on input lines over N MiB (default 64)\n\
           --port <N>         serve: TCP port on loopback (default 0 = ephemeral)\n\
           --capacity <N>     serve: LRU capacity in decoded models (default 16)\n\
           --max-conns <N>    serve: shed connections past N with ERR busy (default 256)\n\
           --max-gen <N>      serve: reject GEN counts over N with ERR limit (default 100000)\n\
           --timeout-secs <N> serve: per-connection read/write deadline (default 30; 0 = none)\n\n\
         exit codes: 0 ok, 1 runtime error, 2 usage error"
    );
}
