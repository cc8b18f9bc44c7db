fn main() {
    std::process::exit(ocelot_benchmark::cli::main(std::env::args().skip(1).collect()));
}
