package repro.jobs

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import org.apache.spark.SparkConf
import org.apache.spark.sql.SparkSession

import repro.eval.Table2

/** Entrypoint reproducing the paper's Table 2 (§5.3): both configurations
  * on each dataset at the three (η, τ) settings, macro-averaged over
  * `instancesPerCell` problem instances (the paper uses 10).
  *
  * Usage: Table2Job [datasetCsv|all] [instancesPerCell] [seedBase]
  *
  * Prints per-instance progress and the paper-vs-measured report, writes
  * `results/table2.tsv` and `results/table2_report.txt` under the working
  * directory (`jobs/` under sbt), and exits 1 on any `Table2.violations`.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val datasets =
      if (args.isEmpty || args(0) == "all") repro.gen.Datasets.all.map(_.name)
      else args(0).split(",").toVector
    val instances = if (args.length > 1) args(1).toInt else 3
    val seedBase = if (args.length > 2) args(2).toLong else 7L

    val builder = SparkSession.builder()
      .appName("affidavit-table2")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
    // A master given to spark-submit wins; `sbt runMain` gets a local one.
    if (!new SparkConf().contains("spark.master")) builder.master("local[*]")
    val spark = builder.getOrCreate()
    val rows =
      try Table2.aggregate(datasets.flatMap { ds =>
        Table2.runDataset(spark, ds, instances, seedBase = seedBase, log = println)
      })
      finally spark.stop()

    val report = Table2.report(rows)
    println(report)
    val dir = Files.createDirectories(Paths.get("results")).toAbsolutePath
    Files.write(dir.resolve("table2.tsv"), Table2.tsv(rows).getBytes(UTF_8))
    Files.write(dir.resolve("table2_report.txt"), report.getBytes(UTF_8))
    println(s"wrote table2.tsv and table2_report.txt to $dir")
    val violations = Table2.violations(rows)
    violations.foreach(v => println(s"check failed: $v"))
    if (violations.nonEmpty) sys.exit(1)
  }
}
