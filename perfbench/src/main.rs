fn main() {
    std::process::exit(perfbench::cli::main());
}
