// Model interface for local training and federated aggregation.
//
// Federated aggregation works on flattened weight vectors: workers train local copies
// and ship weights; aggregators average them (FedAvg/FedProx). A model therefore only
// needs Get/SetWeights, a training step, and evaluation.
#ifndef SRC_ML_MODEL_H_
#define SRC_ML_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/ml/dataset.h"

namespace totoro {

struct TrainConfig {
  float learning_rate = 0.05f;
  size_t batch_size = 20;   // Paper's minibatch size for both tasks.
  size_t local_steps = 10;  // Minibatch SGD steps per local round.
  // FedProx proximal coefficient; 0 disables the proximal term (plain FedAvg local
  // objective).
  float fedprox_mu = 0.0f;
};

class Model {
 public:
  virtual ~Model() = default;

  virtual const std::string& name() const = 0;
  virtual size_t NumParams() const = 0;
  virtual std::vector<float> GetWeights() const = 0;
  virtual void SetWeights(std::span<const float> weights) = 0;
  virtual std::unique_ptr<Model> Clone() const = 0;

  // One local round of minibatch SGD on `shard`; returns the mean training loss over the
  // steps. When config.fedprox_mu > 0, `anchor` (the global weights at round start) adds
  // the proximal pull mu * (w - anchor) to every gradient.
  virtual float TrainLocal(const Dataset& shard, const TrainConfig& config, Rng& rng,
                           std::span<const float> anchor = {}) = 0;

  // Top-1 accuracy on a non-empty dataset: CountCorrect over all of it, over its size.
  double Accuracy(const Dataset& data) const {
    CHECK_GT(data.size(), 0u);
    return static_cast<double>(CountCorrect(data, 0, data.size())) /
           static_cast<double>(data.size());
  }
  // Examples in [begin, end) whose top-1 prediction (the first maximum on a tie) equals
  // the label. Const calls on one model may run concurrently, and every example takes
  // the same Predict path whichever slice it is in, so the counts of the slices of
  // SplitRange(data.size(), parts) always sum to the count Accuracy uses.
  virtual size_t CountCorrect(const Dataset& data, size_t begin, size_t end) const = 0;
  // Mean cross-entropy loss on a dataset.
  virtual double Loss(const Dataset& data) const = 0;

  // Serialized size of the weights on the wire (float32).
  uint64_t WireBytes() const { return NumParams() * sizeof(float); }
};

// Two-layer MLP (input -> ReLU hidden -> softmax) with cross-entropy loss.
std::unique_ptr<Model> MakeMlp(const std::string& name, int input_dim, int hidden_dim,
                               int num_classes, uint64_t init_seed);

// Softmax regression (no hidden layer); the smallest model in the suite.
std::unique_ptr<Model> MakeSoftmaxRegression(const std::string& name, int input_dim,
                                             int num_classes, uint64_t init_seed);

// 1-D convolutional classifier: conv(kernel, filters) -> ReLU -> global average pooling
// -> dense softmax. Structurally closest to the paper's audio models.
std::unique_ptr<Model> MakeConv1d(const std::string& name, int input_len, int filters,
                                  int kernel, int num_classes, uint64_t seed);

// Named proxies for the paper's models. Parameter counts are scaled-down stand-ins; the
// relative size ordering (ResNet-34 proxy > ShuffleNet V2 proxy > feedforward text
// model) is preserved so compute/communication cost ratios carry over.
std::unique_ptr<Model> MakeResNet34Proxy(int input_dim, int num_classes, uint64_t seed);
std::unique_ptr<Model> MakeShuffleNetV2Proxy(int input_dim, int num_classes, uint64_t seed);
std::unique_ptr<Model> MakeTextClassifierProxy(int input_dim, int num_classes, uint64_t seed);

}  // namespace totoro

#endif  // SRC_ML_MODEL_H_
