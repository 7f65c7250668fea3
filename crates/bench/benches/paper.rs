//! Every table and figure of the paper's evaluation, or the ones named
//! on the command line: `cargo bench -p adrias-bench --bench paper --
//! fig16 table1`. The table and its rows live in `adrias_bench`.

fn main() {
    if let Err(why) = adrias_bench::main() {
        eprintln!("paper: {why}");
        std::process::exit(2);
    }
}
