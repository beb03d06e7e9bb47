//! `cargo run -p elga-bench --release -- <name>... | all [--out FILE]`:
//! see the library docs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(elga_bench::main_with(&args, elga_bench::FIGURES));
}
