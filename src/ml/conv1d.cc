// 1-D convolutional classifier: conv(K, F filters) -> ReLU -> global average pooling ->
// dense softmax. The closest structural relative of the paper's audio models
// (ResNet-34 on speech spectrogram features) that still trains in simulation time.
#include <cmath>

#include "src/common/check.h"
#include "src/ml/kernels.h"
#include "src/ml/model.h"

namespace totoro {
namespace {

class Conv1dModel : public Model {
 public:
  Conv1dModel(std::string name, int input_len, int filters, int kernel, int num_classes,
              uint64_t seed)
      : name_(std::move(name)),
        input_len_(input_len),
        filters_(filters),
        kernel_(kernel),
        num_classes_(num_classes),
        positions_(input_len - kernel + 1) {
    CHECK_GT(input_len_, 0);
    CHECK_GT(filters_, 0);
    CHECK_GT(kernel_, 1);
    CHECK_LT(kernel_, input_len_);
    CHECK_GT(num_classes_, 1);
    conv_w_.assign(static_cast<size_t>(filters_) * kernel_, 0.0f);
    conv_b_.assign(static_cast<size_t>(filters_), 0.0f);
    dense_w_.assign(static_cast<size_t>(filters_) * num_classes_, 0.0f);
    dense_b_.assign(static_cast<size_t>(num_classes_), 0.0f);
    Rng rng(seed ^ 0xC07FEull);
    const float s1 = std::sqrt(2.0f / static_cast<float>(kernel_));
    for (auto& v : conv_w_) {
      v = static_cast<float>(rng.Gaussian(0.0, s1));
    }
    const float s2 = std::sqrt(2.0f / static_cast<float>(filters_));
    for (auto& v : dense_w_) {
      v = static_cast<float>(rng.Gaussian(0.0, s2));
    }
  }

  const std::string& name() const override { return name_; }

  size_t NumParams() const override {
    return conv_w_.size() + conv_b_.size() + dense_w_.size() + dense_b_.size();
  }

  std::vector<float> GetWeights() const override {
    std::vector<float> out;
    out.reserve(NumParams());
    out.insert(out.end(), conv_w_.begin(), conv_w_.end());
    out.insert(out.end(), conv_b_.begin(), conv_b_.end());
    out.insert(out.end(), dense_w_.begin(), dense_w_.end());
    out.insert(out.end(), dense_b_.begin(), dense_b_.end());
    return out;
  }

  void SetWeights(std::span<const float> weights) override {
    CHECK_EQ(weights.size(), NumParams());
    size_t off = 0;
    auto take = [&](std::vector<float>& dst) {
      std::copy(weights.begin() + static_cast<long>(off),
                weights.begin() + static_cast<long>(off + dst.size()), dst.begin());
      off += dst.size();
    };
    take(conv_w_);
    take(conv_b_);
    take(dense_w_);
    take(dense_b_);
  }

  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<Conv1dModel>(*this);
  }

  float TrainLocal(const Dataset& shard, const TrainConfig& config, Rng& rng,
                   std::span<const float> anchor) override {
    CHECK_EQ(shard.dim(), input_len_);
    CHECK_GT(shard.size(), 0u);
    std::vector<float> anchor_copy;
    if (config.fedprox_mu > 0.0f) {
      CHECK_EQ(anchor.size(), NumParams());
      anchor_copy.assign(anchor.begin(), anchor.end());
    }
    float loss_sum = 0.0f;
    for (size_t step = 0; step < config.local_steps; ++step) {
      const auto idx = shard.SampleBatch(config.batch_size, rng);
      loss_sum += SgdStep(shard, idx, config, anchor_copy);
    }
    return loss_sum / static_cast<float>(config.local_steps);
  }

  size_t CountCorrect(const Dataset& data, size_t begin, size_t end) const override {
    CHECK_LE(begin, end);
    CHECK_LE(end, data.size());
    size_t correct = 0;
    std::vector<float> probs;
    std::vector<float> act;
    std::vector<float> pooled;
    for (size_t i = begin; i < end; ++i) {
      Forward(data.example(i).x, act, pooled, probs);
      int best = 0;
      for (int c = 1; c < num_classes_; ++c) {
        if (probs[static_cast<size_t>(c)] > probs[static_cast<size_t>(best)]) {
          best = c;
        }
      }
      correct += best == data.example(i).label ? 1 : 0;
    }
    return correct;
  }

  double Loss(const Dataset& data) const override {
    CHECK_GT(data.size(), 0u);
    double loss = 0.0;
    std::vector<float> probs;
    std::vector<float> act;
    std::vector<float> pooled;
    for (size_t i = 0; i < data.size(); ++i) {
      Forward(data.example(i).x, act, pooled, probs);
      loss += -std::log(
          std::max(probs[static_cast<size_t>(data.example(i).label)], 1e-12f));
    }
    return loss / static_cast<double>(data.size());
  }

 private:
  // act: filters x positions (ReLU outputs); pooled: filters; probs: softmax.
  void Forward(const std::vector<float>& x, std::vector<float>& act,
               std::vector<float>& pooled, std::vector<float>& probs) const {
    act.assign(static_cast<size_t>(filters_) * positions_, 0.0f);
    pooled.assign(static_cast<size_t>(filters_), 0.0f);
    // k-outer axpy over positions: each act[p] still accumulates b, then w_0*x[p],
    // w_1*x[p+1], ... in the same order as the old per-position k-loop, but every pass
    // is now a unit-stride vectorizable sweep instead of a K-long dot product.
    for (int f = 0; f < filters_; ++f) {
      float* arow = act.data() + static_cast<size_t>(f) * positions_;
      std::fill(arow, arow + positions_, conv_b_[static_cast<size_t>(f)]);
      for (int k = 0; k < kernel_; ++k) {
        KAxpy(conv_w_[static_cast<size_t>(f * kernel_ + k)],
              x.data() + static_cast<size_t>(k), arow, static_cast<size_t>(positions_));
      }
      KRelu(arow, static_cast<size_t>(positions_));
      // The pool sum stays a sequential scalar reduction (its order is part of the
      // fingerprinted numerics).
      float sum = 0.0f;
      for (int p = 0; p < positions_; ++p) {
        sum += arow[p];
      }
      pooled[static_cast<size_t>(f)] = sum / static_cast<float>(positions_);
    }
    probs.assign(dense_b_.begin(), dense_b_.end());
    for (int f = 0; f < filters_; ++f) {
      const float pv = pooled[static_cast<size_t>(f)];
      if (pv == 0.0f) {
        continue;
      }
      KAxpy(pv, dense_w_.data() + static_cast<size_t>(f * num_classes_), probs.data(),
            static_cast<size_t>(num_classes_));
    }
    KSoftmax(probs.data(), probs.size());
  }

  float SgdStep(const Dataset& shard, const std::vector<size_t>& idx,
                const TrainConfig& config, const std::vector<float>& anchor) {
    std::vector<float> g_conv_w(conv_w_.size(), 0.0f);
    std::vector<float> g_conv_b(conv_b_.size(), 0.0f);
    std::vector<float> g_dense_w(dense_w_.size(), 0.0f);
    std::vector<float> g_dense_b(dense_b_.size(), 0.0f);
    std::vector<float> act;
    std::vector<float> pooled;
    std::vector<float> probs;
    float loss = 0.0f;
    const float inv_batch = 1.0f / static_cast<float>(idx.size());
    for (size_t i : idx) {
      const Example& e = shard.example(i);
      Forward(e.x, act, pooled, probs);
      loss += -std::log(std::max(probs[static_cast<size_t>(e.label)], 1e-12f));
      // dLogits = softmax - onehot.
      std::vector<float> dlogits = probs;
      dlogits[static_cast<size_t>(e.label)] -= 1.0f;
      // Dense grads + dPooled.
      std::vector<float> dpooled(static_cast<size_t>(filters_), 0.0f);
      for (int c = 0; c < num_classes_; ++c) {
        g_dense_b[static_cast<size_t>(c)] += dlogits[static_cast<size_t>(c)] * inv_batch;
        for (int f = 0; f < filters_; ++f) {
          g_dense_w[static_cast<size_t>(f * num_classes_ + c)] +=
              pooled[static_cast<size_t>(f)] * dlogits[static_cast<size_t>(c)] * inv_batch;
          dpooled[static_cast<size_t>(f)] +=
              dense_w_[static_cast<size_t>(f * num_classes_ + c)] *
              dlogits[static_cast<size_t>(c)];
        }
      }
      // Through the mean pool and ReLU into the conv weights.
      const float inv_positions = 1.0f / static_cast<float>(positions_);
      for (int f = 0; f < filters_; ++f) {
        const float dp = dpooled[static_cast<size_t>(f)] * inv_positions;
        for (int p = 0; p < positions_; ++p) {
          if (act[static_cast<size_t>(f * positions_ + p)] <= 0.0f) {
            continue;  // ReLU gate.
          }
          g_conv_b[static_cast<size_t>(f)] += dp * inv_batch;
          for (int k = 0; k < kernel_; ++k) {
            g_conv_w[static_cast<size_t>(f * kernel_ + k)] +=
                dp * e.x[static_cast<size_t>(p + k)] * inv_batch;
          }
        }
      }
    }
    // Apply (with the optional FedProx proximal pull, flattened layout of GetWeights()).
    const float lr = config.learning_rate;
    const float mu = config.fedprox_mu;
    size_t off = 0;
    auto update = [&](std::vector<float>& w, const std::vector<float>& g) {
      if (mu > 0.0f) {
        for (size_t i = 0; i < w.size(); ++i) {
          const float grad = g[i] + mu * (w[i] - anchor[off + i]);
          w[i] -= lr * grad;
        }
      } else {
        // w -= lr * g is bit-identical to w += (-lr) * g (sign flip is exact).
        KAxpy(-lr, g.data(), w.data(), w.size());
      }
      off += w.size();
    };
    update(conv_w_, g_conv_w);
    update(conv_b_, g_conv_b);
    update(dense_w_, g_dense_w);
    update(dense_b_, g_dense_b);
    return loss * inv_batch;
  }

  std::string name_;
  int input_len_;
  int filters_;
  int kernel_;
  int num_classes_;
  int positions_;
  std::vector<float> conv_w_;
  std::vector<float> conv_b_;
  std::vector<float> dense_w_;
  std::vector<float> dense_b_;
};

}  // namespace

std::unique_ptr<Model> MakeConv1d(const std::string& name, int input_len, int filters,
                                  int kernel, int num_classes, uint64_t seed) {
  return std::make_unique<Conv1dModel>(name, input_len, filters, kernel, num_classes, seed);
}

}  // namespace totoro
