package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic data sources for the jobs. */
object SynthData {

  /** Multivariate time series for the MTCSC reproduction — delegates to
    * [[repro.data.TimeSeriesGen]] and lifts the result into a
    * Dataset[SeriesRow]-shaped DataFrame (seriesId, t, dims). Datasets:
    * "stock", "ild", "tao", "ecg", "gpswalk" (dirty), "gpsmixed" (dirty).
    */
  def timeSeries(spark: SparkSession, dataset: String, n: Int, seed: Long = 0): DataFrame = {
    import repro.data.TimeSeriesGen
    val pts = dataset.toLowerCase match {
      case "stock"    => TimeSeriesGen.stock(n, seed + 7)
      case "ild"      => TimeSeriesGen.ild(n, seed + 11)
      case "tao"      => TimeSeriesGen.tao(n, seed + 13)
      case "ecg"      => TimeSeriesGen.ecg(n, seed = seed + 17)
      case "gpswalk"  => TimeSeriesGen.gpsWalk(n, seed + 19).dirty
      case "gpsmixed" => TimeSeriesGen.gpsMixed(n, seed + 23).dirty
      case other      => throw new IllegalArgumentException(s"unknown dataset $other")
    }
    repro.spark.SparkCleaner.toDS(spark, Seq(0L -> pts)).toDF()
  }
}
