use cbsp_bench::evaluate_benchmark;
use cbsp_program::Scale;
use cbsp_sim::MemoryConfig;

fn main() {
    let name = std::env::args().nth(1).unwrap_or("vpr".into());
    let run = evaluate_benchmark(&name, Scale::Reference, 100_000, &MemoryConfig::table1());
    let e = &run.eval;
    println!("=== {} ===", name);
    for b in 0..4 {
        println!(
            "bin{}: instrs={} true_cpi={:.3} fli_est={:.3} vli_est={:.3}",
            b,
            e.true_stats[b].instructions,
            e.true_stats[b].cpi(),
            e.fli.cpi_est[b],
            e.vli.cpi_est[b]
        );
    }
    // VLI phase details for binary 0
    println!(
        "-- VLI k={} intervals={}",
        run.cross.simpoint.k,
        run.cross.interval_count()
    );
    for pt in &run.cross.simpoint.points {
        for b in [0usize, 1] {
            let stats = &run.vli_interval_stats[b];
            let mut cyc = 0.0;
            let mut ins = 0.0;
            let mut n = 0;
            for (i, &l) in run.cross.simpoint.labels.iter().enumerate() {
                if l == pt.phase {
                    cyc += stats[i].cycles as f64;
                    ins += stats[i].instructions as f64;
                    n += 1;
                }
            }
            println!(
                "  phase {} bin{} w={:.3} true_cpi={:.3} sp_cpi={:.3} rep={} members={}",
                pt.phase,
                b,
                run.cross.weights[b][pt.phase as usize],
                if ins > 0.0 { cyc / ins } else { 0.0 },
                stats[pt.interval].cpi(),
                pt.interval,
                n
            );
        }
    }
    // First interval CPIs per binary (VLI slicing)
    for b in 0..4 {
        let stats = &run.vli_interval_stats[b];
        let cpis: Vec<String> = stats
            .iter()
            .take(12)
            .map(|s| format!("{:.2}", s.cpi()))
            .collect();
        println!("bin{} first-12 interval CPIs: {}", b, cpis.join(" "));
        let labels = &run.cross.simpoint.labels;
        let l12: Vec<String> = labels.iter().take(12).map(|l| l.to_string()).collect();
        println!("     labels: {}", l12.join(" "));
    }
    // FLI phase details binary 0
    for b in [0usize, 1] {
        let pb = &run.per_binary[b];
        println!("-- FLI bin{} k={} intervals={}", b, pb.k, pb.labels.len());
        for pt in &pb.points {
            let stats = &run.fli_interval_stats[b];
            let mut cyc = 0.0;
            let mut ins = 0.0;
            for (i, &l) in pb.labels.iter().enumerate() {
                if l == pt.phase {
                    cyc += stats[i].cycles as f64;
                    ins += stats[i].instructions as f64;
                }
            }
            println!(
                "  phase {} w={:.3} true_cpi={:.3} sp_cpi={:.3} rep={}",
                pt.phase,
                pt.weight,
                if ins > 0.0 { cyc / ins } else { 0.0 },
                stats[pt.interval].cpi(),
                pt.interval
            );
        }
    }
}
