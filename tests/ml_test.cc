#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "src/ml/model.h"
#include "src/ml/serialize.h"
#include "src/ml/tensor.h"

namespace totoro {
namespace {

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]].
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(std::begin(av), std::end(av), a.data().begin());
  std::copy(std::begin(bv), std::end(bv), b.data().begin());
  Matrix out(2, 2);
  MatMul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154);
}

TEST(MatrixTest, MatTMulAddAccumulates) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = 1;  // Identity.
  b.at(0, 0) = 3;
  b.at(0, 1) = 4;
  b.at(1, 0) = 5;
  b.at(1, 1) = 6;
  Matrix out(2, 2);
  out.at(0, 0) = 1.0;  // Pre-existing value must be accumulated onto.
  MatTMulAdd(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 4.0);  // 1 + 3.
  EXPECT_FLOAT_EQ(out.at(1, 1), 6.0);
}

TEST(MatrixTest, MulMatTTransposesSecond) {
  Matrix a(1, 2);
  Matrix b(3, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  for (size_t r = 0; r < 3; ++r) {
    b.at(r, 0) = static_cast<float>(r + 1);
    b.at(r, 1) = static_cast<float>(r + 1);
  }
  Matrix out(1, 3);
  MulMatT(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3);   // 1*1+2*1.
  EXPECT_FLOAT_EQ(out.at(0, 1), 6);   // 1*2+2*2.
  EXPECT_FLOAT_EQ(out.at(0, 2), 9);
}

TEST(MatrixTest, SoftmaxRowsSumToOne) {
  Matrix m(2, 4);
  for (size_t i = 0; i < m.data().size(); ++i) {
    m.data()[i] = static_cast<float>(i) * 0.5f;
  }
  SoftmaxRows(m);
  for (size_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_GT(m.at(r, c), 0.0f);
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(MatrixTest, ReluMasksNegatives) {
  Matrix m(1, 3);
  m.at(0, 0) = -1;
  m.at(0, 1) = 0;
  m.at(0, 2) = 2;
  Matrix g(1, 3);
  g.Fill(1.0f);
  Matrix act = m;
  ReluInPlace(act);
  EXPECT_FLOAT_EQ(act.at(0, 0), 0);
  EXPECT_FLOAT_EQ(act.at(0, 2), 2);
  ReluBackward(act, g);
  EXPECT_FLOAT_EQ(g.at(0, 0), 0);
  EXPECT_FLOAT_EQ(g.at(0, 2), 1);
}

TEST(DatasetTest, SyntheticTaskIsLearnableStructure) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.class_separation = 3.0;
  spec.noise_stddev = 0.5;
  spec.seed = 1;
  SyntheticTask task(spec);
  Rng rng(2);
  const Dataset ds = task.Generate(200, rng);
  EXPECT_EQ(ds.size(), 200u);
  EXPECT_EQ(ds.dim(), 16);
  // Same-class examples are closer to each other than cross-class on average.
  double intra = 0.0;
  double inter = 0.0;
  size_t intra_n = 0;
  size_t inter_n = 0;
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = i + 1; j < 50; ++j) {
      double d2 = 0;
      for (int k = 0; k < 16; ++k) {
        const double diff = ds.example(i).x[static_cast<size_t>(k)] -
                            ds.example(j).x[static_cast<size_t>(k)];
        d2 += diff * diff;
      }
      if (ds.example(i).label == ds.example(j).label) {
        intra += d2;
        ++intra_n;
      } else {
        inter += d2;
        ++inter_n;
      }
    }
  }
  ASSERT_GT(intra_n, 0u);
  ASSERT_GT(inter_n, 0u);
  EXPECT_LT(intra / intra_n, inter / inter_n);
}

TEST(DatasetTest, GeneratorIsSeedConsistent) {
  const auto spec = SyntheticTask::FemnistLike(7);
  SyntheticTask t1(spec);
  SyntheticTask t2(spec);
  Rng r1(9);
  Rng r2(9);
  const Dataset d1 = t1.Generate(20, r1);
  const Dataset d2 = t2.Generate(20, r2);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(d1.example(i).label, d2.example(i).label);
    EXPECT_EQ(d1.example(i).x, d2.example(i).x);
  }
}

TEST(DatasetTest, DirichletPartitionConservesExamples) {
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(3));
  Rng rng(4);
  const Dataset full = task.Generate(1000, rng);
  const auto shards = PartitionDirichlet(full, 10, 0.5, rng);
  ASSERT_EQ(shards.size(), 10u);
  size_t total = 0;
  for (const auto& s : shards) {
    total += s.size();
  }
  EXPECT_EQ(total, full.size());
}

TEST(DatasetTest, LowAlphaPartitionIsSkewed) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_classes = 10;
  spec.seed = 5;
  SyntheticTask task(spec);
  Rng rng(6);
  const Dataset full = task.Generate(2000, rng);
  const auto skewed = PartitionDirichlet(full, 10, 0.05, rng);
  // A client's shard should be dominated by few classes.
  double max_frac_sum = 0.0;
  int counted = 0;
  for (const auto& shard : skewed) {
    if (shard.size() < 20) {
      continue;
    }
    std::vector<size_t> counts(10, 0);
    for (size_t i = 0; i < shard.size(); ++i) {
      ++counts[static_cast<size_t>(shard.example(i).label)];
    }
    max_frac_sum += static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
                    static_cast<double>(shard.size());
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_GT(max_frac_sum / counted, 0.4);  // IID would give ~0.1.
}

TEST(ModelTest, WeightsRoundTrip) {
  auto model = MakeMlp("m", 8, 16, 4, 1);
  const auto w = model->GetWeights();
  EXPECT_EQ(w.size(), model->NumParams());
  EXPECT_EQ(model->NumParams(), 8u * 16 + 16 + 16 * 4 + 4);
  auto other = MakeMlp("m2", 8, 16, 4, 2);
  other->SetWeights(w);
  EXPECT_EQ(other->GetWeights(), w);
}

TEST(ModelTest, CloneIsIndependent) {
  auto model = MakeSoftmaxRegression("m", 4, 3, 1);
  auto clone = model->Clone();
  auto w = model->GetWeights();
  w[0] += 10.0f;
  model->SetWeights(w);
  EXPECT_NE(model->GetWeights(), clone->GetWeights());
}

TEST(ModelTest, TrainingImprovesAccuracy) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 5;
  spec.class_separation = 2.5;
  spec.noise_stddev = 1.0;
  spec.seed = 11;
  SyntheticTask task(spec);
  Rng rng(12);
  const Dataset train = task.Generate(600, rng);
  const Dataset test = task.Generate(300, rng);
  auto model = MakeMlp("m", 16, 32, 5, 13);
  const double before = model->Accuracy(test);
  TrainConfig config;
  config.learning_rate = 0.1f;
  config.batch_size = 20;
  config.local_steps = 200;
  Rng train_rng(14);
  model->TrainLocal(train, config, train_rng);
  const double after = model->Accuracy(test);
  EXPECT_GT(after, before + 0.2);
  EXPECT_GT(after, 0.6);
}

TEST(ModelTest, TrainingReducesLoss) {
  SyntheticTask task(SyntheticTask::TextClassificationLike(21));
  Rng rng(22);
  const Dataset train = task.Generate(400, rng);
  auto model = MakeTextClassifierProxy(32, 4, 23);
  const double before = model->Loss(train);
  TrainConfig config;
  config.learning_rate = 0.1f;
  config.local_steps = 100;
  Rng train_rng(24);
  model->TrainLocal(train, config, train_rng);
  EXPECT_LT(model->Loss(train), before);
}

TEST(ModelTest, SoftmaxRegressionTrainsToo) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_classes = 3;
  spec.class_separation = 3.0;
  spec.noise_stddev = 0.6;
  spec.seed = 31;
  SyntheticTask task(spec);
  Rng rng(32);
  const Dataset train = task.Generate(300, rng);
  auto model = MakeSoftmaxRegression("sr", 8, 3, 33);
  TrainConfig config;
  config.learning_rate = 0.2f;
  config.local_steps = 150;
  Rng train_rng(34);
  model->TrainLocal(train, config, train_rng);
  EXPECT_GT(model->Accuracy(train), 0.85);
}

TEST(ModelTest, FedProxPullsTowardAnchor) {
  SyntheticTask task(SyntheticTask::TextClassificationLike(41));
  Rng rng(42);
  const Dataset train = task.Generate(200, rng);

  auto free_model = MakeSoftmaxRegression("free", 32, 4, 43);
  auto prox_model = MakeSoftmaxRegression("prox", 32, 4, 43);
  const auto anchor = free_model->GetWeights();

  TrainConfig free_config;
  free_config.learning_rate = 0.2f;
  free_config.local_steps = 100;
  TrainConfig prox_config = free_config;
  prox_config.fedprox_mu = 1.0f;

  Rng r1(44);
  Rng r2(44);
  free_model->TrainLocal(train, free_config, r1);
  prox_model->TrainLocal(train, prox_config, r2, anchor);

  auto drift = [&](const Model& m) {
    const auto w = m.GetWeights();
    double d = 0;
    for (size_t i = 0; i < w.size(); ++i) {
      d += static_cast<double>(w[i] - anchor[i]) * (w[i] - anchor[i]);
    }
    return std::sqrt(d);
  };
  EXPECT_LT(drift(*prox_model), drift(*free_model));
}

TEST(ModelTest, ProxyModelSizeOrdering) {
  auto resnet = MakeResNet34Proxy(64, 35, 1);
  auto shuffle = MakeShuffleNetV2Proxy(64, 62, 1);
  auto text = MakeTextClassifierProxy(32, 4, 1);
  EXPECT_GT(resnet->NumParams(), shuffle->NumParams());
  EXPECT_GT(shuffle->NumParams(), text->NumParams());
}

TEST(SerializeTest, Float32RoundTripExact) {
  std::vector<float> w = {0.0f, -1.5f, 3.14159f, 1e-20f, -1e20f};
  const auto bytes = EncodeFloat32(w);
  EXPECT_EQ(bytes.size(), w.size() * 4);
  EXPECT_EQ(DecodeFloat32(bytes), w);
}

TEST(SerializeTest, Int8RoundTripWithinQuantizationError) {
  Rng rng(51);
  std::vector<float> w(1000);
  for (auto& v : w) {
    v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  }
  const auto bytes = EncodeInt8(w);
  EXPECT_EQ(bytes.size(), 4 + w.size());
  const auto decoded = DecodeInt8(bytes);
  ASSERT_EQ(decoded.size(), w.size());
  float max_abs = 0;
  for (float v : w) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  const float step = max_abs / 127.0f;
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(decoded[i], w[i], step * 0.51f);
  }
}

TEST(SerializeTest, Int8AllZeros) {
  std::vector<float> w(10, 0.0f);
  const auto decoded = DecodeInt8(EncodeInt8(w));
  for (float v : decoded) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

// --- Sliced evaluation -----------------------------------------------------------
// The FL engine evaluates a round's global model in contiguous test-set slices on the
// compute pool and sums the integer counts. That must reproduce Model::Accuracy
// exactly, with the slices counted concurrently on one shared model.

TEST(SplitRangeTest, ContiguousNonEmptyAndBalanced) {
  for (size_t n : {0u, 1u, 3u, 10u, 400u}) {
    for (size_t parts : {1u, 2u, 3u, 4u, 7u}) {
      const std::vector<IndexRange> ranges = SplitRange(n, parts);
      ASSERT_EQ(ranges.size(), std::min(n, parts)) << n << "/" << parts;
      size_t next = 0;
      for (const IndexRange& r : ranges) {
        EXPECT_EQ(r.begin, next);
        EXPECT_GT(r.end, r.begin);
        EXPECT_LE(r.end - r.begin, n / parts + 1);
        next = r.end;
      }
      EXPECT_EQ(next, n);
    }
  }
}

// Accuracy from CountCorrect over SplitRange(test.size(), parts), each slice counted
// on its own thread.
double SlicedAccuracy(const Model& model, const Dataset& test, size_t parts) {
  const std::vector<IndexRange> ranges = SplitRange(test.size(), parts);
  std::vector<size_t> counts(ranges.size(), 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < ranges.size(); ++i) {
    threads.emplace_back([&, i] {
      counts[i] = model.CountCorrect(test, ranges[i].begin, ranges[i].end);
    });
  }
  size_t correct = 0;
  for (size_t i = 0; i < threads.size(); ++i) {
    threads[i].join();
    correct += counts[i];
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

std::vector<std::unique_ptr<Model>> SliceTestModels() {
  std::vector<std::unique_ptr<Model>> models;
  models.push_back(MakeMlp("mlp", 16, 24, 5, 41));
  models.push_back(MakeSoftmaxRegression("sr", 16, 5, 42));
  models.push_back(MakeConv1d("conv", 16, 4, 3, 5, 43));
  return models;
}

TEST(SlicedAccuracyTest, SliceCountsReproduceAccuracyExactly) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 5;
  spec.class_separation = 0.6;
  spec.noise_stddev = 1.5;
  spec.seed = 44;
  SyntheticTask task(spec);
  Rng rng(45);
  const Dataset train = task.Generate(300, rng);
  const Dataset test = task.Generate(203, rng);
  const Dataset tiny = task.Generate(3, rng);
  TrainConfig config;
  config.learning_rate = 0.1f;
  config.local_steps = 40;
  for (const std::unique_ptr<Model>& model : SliceTestModels()) {
    Rng train_rng(46);
    model->TrainLocal(train, config, train_rng);
    const double serial = model->Accuracy(test);
    EXPECT_GT(serial, 0.0) << model->name();
    EXPECT_LT(serial, 1.0) << model->name();  // Both outcomes occur, so slices matter.
    for (size_t parts : {1u, 2u, 3u, 4u, 7u}) {
      EXPECT_EQ(SlicedAccuracy(*model, test, parts), serial)
          << model->name() << " parts=" << parts;
      // Fewer examples than slices: one example per slice.
      EXPECT_EQ(SlicedAccuracy(*model, tiny, parts), model->Accuracy(tiny))
          << model->name() << " tiny parts=" << parts;
    }
  }
}

TEST(SlicedAccuracyTest, LogitTiesResolveToTheFirstClassInEverySlice) {
  // All-zero weights give every class the same logit, so each prediction is the tie
  // break (class 0) and accuracy is the share of label-0 examples.
  Dataset test(16, 5);
  Rng rng(47);
  size_t label_zero = 0;
  for (int i = 0; i < 37; ++i) {
    Example e;
    e.x.assign(16, static_cast<float>(rng.NextDouble()));
    e.label = i % 5;
    label_zero += e.label == 0 ? 1 : 0;
    test.Add(std::move(e));
  }
  const double expected = static_cast<double>(label_zero) / static_cast<double>(test.size());
  for (const std::unique_ptr<Model>& model : SliceTestModels()) {
    model->SetWeights(std::vector<float>(model->NumParams(), 0.0f));
    EXPECT_EQ(model->Accuracy(test), expected) << model->name();
    for (size_t parts : {1u, 2u, 3u, 4u, 7u}) {
      EXPECT_EQ(SlicedAccuracy(*model, test, parts), expected)
          << model->name() << " parts=" << parts;
    }
  }
}

}  // namespace
}  // namespace totoro
