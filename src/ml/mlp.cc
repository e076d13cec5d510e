#include <cmath>

#include "src/common/check.h"
#include "src/ml/kernels.h"
#include "src/ml/model.h"
#include "src/ml/tensor.h"

namespace totoro {
namespace {

// MLP with 0 or 1 hidden layer: x -> [W1 + b1, ReLU] -> W2 + b2 -> softmax.
// hidden_dim == 0 degenerates to softmax regression.
class MlpModel : public Model {
 public:
  MlpModel(std::string name, int input_dim, int hidden_dim, int num_classes,
           uint64_t init_seed)
      : name_(std::move(name)),
        input_dim_(input_dim),
        hidden_dim_(hidden_dim),
        num_classes_(num_classes) {
    CHECK_GT(input_dim_, 0);
    CHECK_GE(hidden_dim_, 0);
    CHECK_GT(num_classes_, 1);
    const int first_out = hidden_dim_ > 0 ? hidden_dim_ : num_classes_;
    w1_ = Matrix(static_cast<size_t>(input_dim_), static_cast<size_t>(first_out));
    b1_.assign(static_cast<size_t>(first_out), 0.0f);
    if (hidden_dim_ > 0) {
      w2_ = Matrix(static_cast<size_t>(hidden_dim_), static_cast<size_t>(num_classes_));
      b2_.assign(static_cast<size_t>(num_classes_), 0.0f);
    }
    // He initialization.
    Rng rng(init_seed ^ 0x1217AB1E5ull);
    const float s1 = std::sqrt(2.0f / static_cast<float>(input_dim_));
    for (auto& v : w1_.data()) {
      v = static_cast<float>(rng.Gaussian(0.0, s1));
    }
    if (hidden_dim_ > 0) {
      const float s2 = std::sqrt(2.0f / static_cast<float>(hidden_dim_));
      for (auto& v : w2_.data()) {
        v = static_cast<float>(rng.Gaussian(0.0, s2));
      }
    }
  }

  const std::string& name() const override { return name_; }

  size_t NumParams() const override {
    return w1_.size() + b1_.size() + w2_.size() + b2_.size();
  }

  std::vector<float> GetWeights() const override {
    std::vector<float> out;
    out.reserve(NumParams());
    out.insert(out.end(), w1_.data().begin(), w1_.data().end());
    out.insert(out.end(), b1_.begin(), b1_.end());
    out.insert(out.end(), w2_.data().begin(), w2_.data().end());
    out.insert(out.end(), b2_.begin(), b2_.end());
    return out;
  }

  void SetWeights(std::span<const float> weights) override {
    CHECK_EQ(weights.size(), NumParams());
    size_t off = 0;
    auto take = [&](auto dst, size_t n) {
      std::copy(weights.begin() + static_cast<long>(off),
                weights.begin() + static_cast<long>(off + n), dst);
      off += n;
    };
    take(w1_.data().begin(), w1_.size());
    take(b1_.begin(), b1_.size());
    if (hidden_dim_ > 0) {
      take(w2_.data().begin(), w2_.size());
      take(b2_.begin(), b2_.size());
    }
  }

  std::unique_ptr<Model> Clone() const override { return std::make_unique<MlpModel>(*this); }

  float TrainLocal(const Dataset& shard, const TrainConfig& config, Rng& rng,
                   std::span<const float> anchor) override {
    CHECK_EQ(shard.dim(), input_dim_);
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
    std::vector<float> hidden;
    std::vector<float> probs;
    for (size_t i = begin; i < end; ++i) {
      const Example& e = data.example(i);
      Predict(e.x, hidden, probs);
      int best = 0;
      for (int c = 1; c < num_classes_; ++c) {
        if (probs[static_cast<size_t>(c)] > probs[static_cast<size_t>(best)]) {
          best = c;
        }
      }
      if (best == e.label) {
        ++correct;
      }
    }
    return correct;
  }

  double Loss(const Dataset& data) const override {
    CHECK_GT(data.size(), 0u);
    double loss = 0.0;
    std::vector<float> hidden;
    std::vector<float> probs;
    for (size_t i = 0; i < data.size(); ++i) {
      const Example& e = data.example(i);
      Predict(e.x, hidden, probs);
      loss += -std::log(std::max(probs[static_cast<size_t>(e.label)], 1e-12f));
    }
    return loss / static_cast<double>(data.size());
  }

 private:
  // `hidden` is caller-owned scratch, so concurrent Predicts on one model never share a
  // buffer.
  void Predict(const std::vector<float>& x, std::vector<float>& hidden,
               std::vector<float>& probs) const {
    // Accumulate along ROWS of the weight matrices (axpy order, the same order MatMul
    // uses in training): unit-stride streaming the compiler can vectorize, instead of
    // a strided column walk per output. Same trick MatMul plays with zero inputs: a
    // ReLU'd hidden layer is typically ~half zeros, so skipping them halves stage 2.
    if (hidden_dim_ == 0) {
      probs.assign(b1_.begin(), b1_.end());
      for (int d = 0; d < input_dim_; ++d) {
        const float xd = x[static_cast<size_t>(d)];
        if (xd == 0.0f) {
          continue;
        }
        KAxpy(xd, w1_.row(static_cast<size_t>(d)).data(), probs.data(),
              static_cast<size_t>(num_classes_));
      }
    } else {
      hidden.assign(b1_.begin(), b1_.end());
      for (int d = 0; d < input_dim_; ++d) {
        const float xd = x[static_cast<size_t>(d)];
        if (xd == 0.0f) {
          continue;
        }
        KAxpy(xd, w1_.row(static_cast<size_t>(d)).data(), hidden.data(),
              static_cast<size_t>(hidden_dim_));
      }
      probs.assign(b2_.begin(), b2_.end());
      for (int h = 0; h < hidden_dim_; ++h) {
        const float hv = std::max(hidden[static_cast<size_t>(h)], 0.0f);
        if (hv == 0.0f) {
          continue;
        }
        KAxpy(hv, w2_.row(static_cast<size_t>(h)).data(), probs.data(),
              static_cast<size_t>(num_classes_));
      }
    }
    KSoftmax(probs.data(), probs.size());
  }

  // One minibatch SGD step; returns the batch's mean cross-entropy.
  float SgdStep(const Dataset& shard, const std::vector<size_t>& idx, const TrainConfig& config,
                const std::vector<float>& anchor) {
    const size_t bsz = idx.size();
    // All scratch matrices are members reused across steps (fully overwritten each
    // call: MatMul/MulMatT Fill their output, gradient buffers are zeroed below), so
    // the hot path does no per-step allocation after the first batch.
    Matrix& x = x_scratch_;
    x.Resize(bsz, static_cast<size_t>(input_dim_));
    for (size_t i = 0; i < bsz; ++i) {
      const auto& ex = shard.example(idx[i]).x;
      std::copy(ex.begin(), ex.end(), x.row(i).begin());
    }
    const int first_out = hidden_dim_ > 0 ? hidden_dim_ : num_classes_;

    Matrix& a1 = a1_scratch_;
    a1.Resize(bsz, static_cast<size_t>(first_out));
    MatMul(x, w1_, a1);
    for (size_t i = 0; i < bsz; ++i) {
      Axpy(1.0f, b1_, a1.row(i));
    }
    // After ReLU, a1 IS the hidden activation and is not modified again; alias it
    // instead of copying a bsz x hidden_dim matrix every step. With no hidden layer,
    // a1 already holds the logits, so alias it there too instead of copying.
    const Matrix& hidden = a1;
    Matrix& logits = hidden_dim_ > 0 ? logits_scratch_ : a1;
    if (hidden_dim_ > 0) {
      ReluInPlace(a1);
      logits.Resize(bsz, static_cast<size_t>(num_classes_));
      MatMul(hidden, w2_, logits);
      for (size_t i = 0; i < bsz; ++i) {
        Axpy(1.0f, b2_, logits.row(i));
      }
    }
    SoftmaxRows(logits);
    // Cross-entropy and dLogits = (softmax - onehot) / batch.
    float loss = 0.0f;
    for (size_t i = 0; i < bsz; ++i) {
      const int label = shard.example(idx[i]).label;
      loss += -std::log(std::max(logits.at(i, static_cast<size_t>(label)), 1e-12f));
      logits.at(i, static_cast<size_t>(label)) -= 1.0f;
    }
    loss /= static_cast<float>(bsz);
    Scale(std::span<float>(logits.data()), 1.0f / static_cast<float>(bsz));

    const float lr = config.learning_rate;
    if (hidden_dim_ > 0) {
      // Grad for W2/b2.
      Matrix& gw2 = gw2_scratch_;
      gw2.Resize(static_cast<size_t>(hidden_dim_), static_cast<size_t>(num_classes_));
      gw2.Fill(0.0f);
      MatTMulAdd(hidden, logits, gw2);
      gb2_scratch_.assign(static_cast<size_t>(num_classes_), 0.0f);
      for (size_t i = 0; i < bsz; ++i) {
        Axpy(1.0f, logits.row(i), gb2_scratch_);
      }
      // Backprop into hidden.
      Matrix& dh = dh_scratch_;
      dh.Resize(bsz, static_cast<size_t>(hidden_dim_));
      MulMatT(logits, w2_, dh, bt_scratch_);
      ReluBackward(hidden, dh);
      // Grad for W1/b1.
      Matrix& gw1 = gw1_scratch_;
      gw1.Resize(static_cast<size_t>(input_dim_), static_cast<size_t>(hidden_dim_));
      gw1.Fill(0.0f);
      MatTMulAdd(x, dh, gw1);
      gb1_scratch_.assign(static_cast<size_t>(hidden_dim_), 0.0f);
      for (size_t i = 0; i < bsz; ++i) {
        Axpy(1.0f, dh.row(i), gb1_scratch_);
      }
      ApplyUpdate(gw1, gb1_scratch_, &gw2, &gb2_scratch_, lr, config.fedprox_mu, anchor);
    } else {
      Matrix& gw1 = gw1_scratch_;
      gw1.Resize(static_cast<size_t>(input_dim_), static_cast<size_t>(num_classes_));
      gw1.Fill(0.0f);
      MatTMulAdd(x, logits, gw1);
      gb1_scratch_.assign(static_cast<size_t>(num_classes_), 0.0f);
      for (size_t i = 0; i < bsz; ++i) {
        Axpy(1.0f, logits.row(i), gb1_scratch_);
      }
      ApplyUpdate(gw1, gb1_scratch_, nullptr, nullptr, lr, config.fedprox_mu, anchor);
    }
    return loss;
  }

  void ApplyUpdate(const Matrix& gw1, const std::vector<float>& gb1, const Matrix* gw2,
                   const std::vector<float>* gb2, float lr, float mu,
                   const std::vector<float>& anchor) {
    // FedProx proximal pull: grad += mu * (w - anchor), applied per parameter group
    // using the flattened anchor layout of GetWeights().
    size_t off = 0;
    auto update = [&](std::span<float> w, std::span<const float> g) {
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
    update(std::span<float>(w1_.data()), std::span<const float>(gw1.data()));
    update(b1_, gb1);
    if (gw2 != nullptr) {
      update(std::span<float>(w2_.data()), std::span<const float>(gw2->data()));
      update(b2_, *gb2);
    }
  }

  std::string name_;
  int input_dim_;
  int hidden_dim_;
  int num_classes_;
  Matrix w1_;
  std::vector<float> b1_;
  Matrix w2_{0, 0};
  std::vector<float> b2_;
  // SgdStep scratch, reused across steps. Every buffer is fully overwritten per call,
  // so reuse carries no state between steps and the math stays bit-identical.
  Matrix x_scratch_, a1_scratch_, logits_scratch_, gw1_scratch_, gw2_scratch_;
  Matrix dh_scratch_, bt_scratch_;
  std::vector<float> gb1_scratch_, gb2_scratch_;
};

}  // namespace

std::unique_ptr<Model> MakeMlp(const std::string& name, int input_dim, int hidden_dim,
                               int num_classes, uint64_t init_seed) {
  return std::make_unique<MlpModel>(name, input_dim, hidden_dim, num_classes, init_seed);
}

std::unique_ptr<Model> MakeSoftmaxRegression(const std::string& name, int input_dim,
                                             int num_classes, uint64_t init_seed) {
  return std::make_unique<MlpModel>(name, input_dim, /*hidden_dim=*/0, num_classes, init_seed);
}

std::unique_ptr<Model> MakeResNet34Proxy(int input_dim, int num_classes, uint64_t seed) {
  return MakeMlp("resnet34-proxy", input_dim, /*hidden_dim=*/256, num_classes, seed);
}

std::unique_ptr<Model> MakeShuffleNetV2Proxy(int input_dim, int num_classes, uint64_t seed) {
  return MakeMlp("shufflenetv2-proxy", input_dim, /*hidden_dim=*/96, num_classes, seed);
}

std::unique_ptr<Model> MakeTextClassifierProxy(int input_dim, int num_classes, uint64_t seed) {
  return MakeMlp("text-ff-proxy", input_dim, /*hidden_dim=*/32, num_classes, seed);
}

}  // namespace totoro
