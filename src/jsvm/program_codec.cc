#include "src/jsvm/program_codec.h"

#include <cstdint>
#include <cstring>

namespace pkrusafe {

namespace {

// Constant tags.
constexpr uint8_t kNumberConstant = 0;
constexpr uint8_t kStringConstant = 1;

// Encoded instruction: op byte + a + b.
constexpr size_t kInstrBytes = 1 + 2 * sizeof(uint32_t);

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out_->append(raw, sizeof(T));
  }
  void Count(size_t n) { Put(static_cast<uint32_t>(n)); }
  void Str(std::string_view text) {
    Count(text.size());
    out_->append(text);
  }
  void Strs(const std::vector<std::string>& texts) {
    Count(texts.size());
    for (const std::string& text : texts) {
      Str(text);
    }
  }

 private:
  std::string* out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Get(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) {
      return false;
    }
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  // A count of items taking at least `min_item_bytes` each: refusing counts
  // the rest of the blob cannot hold keeps a corrupt count from turning into
  // a huge reserve.
  bool Count(size_t min_item_bytes, uint32_t* n) {
    return Get(n) && static_cast<uint64_t>(*n) * min_item_bytes <= bytes_.size() - pos_;
  }
  bool Str(std::string* text) {
    uint32_t n = 0;
    if (!Count(1, &n)) {
      return false;
    }
    text->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool Strs(std::vector<std::string>* texts) {
    uint32_t n = 0;
    if (!Count(sizeof(uint32_t), &n)) {
      return false;
    }
    texts->resize(n);
    for (std::string& text : *texts) {
      if (!Str(&text)) {
        return false;
      }
    }
    return true;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

bool DecodeFunction(Reader& in, CompiledFunction* fn) {
  uint32_t n = 0;
  if (!in.Str(&fn->name) || !in.Get(&fn->arity) || !in.Get(&fn->num_locals) ||
      !in.Count(kInstrBytes, &n)) {
    return false;
  }
  fn->code.resize(n);
  for (BcInstr& instr : fn->code) {
    uint8_t op = 0;
    if (!in.Get(&op) || op > static_cast<uint8_t>(Op::kIndexSet) || !in.Get(&instr.a) ||
        !in.Get(&instr.b)) {
      return false;
    }
    instr.op = static_cast<Op>(op);
  }
  if (!in.Count(sizeof(int32_t), &n)) {
    return false;
  }
  fn->lines.resize(n);
  for (int& line : fn->lines) {
    int32_t value = 0;
    if (!in.Get(&value)) {
      return false;
    }
    line = value;
  }
  if (!in.Count(1 + sizeof(uint32_t), &n)) {
    return false;
  }
  fn->constants.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t tag = 0;
    if (!in.Get(&tag)) {
      return false;
    }
    if (tag == kNumberConstant) {
      double number = 0;
      if (!in.Get(&number)) {
        return false;
      }
      fn->constants.emplace_back(number);
    } else if (tag == kStringConstant) {
      std::string text;
      if (!in.Str(&text)) {
        return false;
      }
      fn->constants.emplace_back(std::move(text));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EncodeProgram(const CompiledProgram& program) {
  std::string out;
  Writer w(&out);
  w.Count(program.functions.size());
  for (const CompiledFunction& fn : program.functions) {
    w.Str(fn.name);
    w.Put(fn.arity);
    w.Put(fn.num_locals);
    w.Count(fn.code.size());
    for (const BcInstr& instr : fn.code) {
      w.Put(static_cast<uint8_t>(instr.op));
      w.Put(instr.a);
      w.Put(instr.b);
    }
    w.Count(fn.lines.size());
    for (const int line : fn.lines) {
      w.Put(static_cast<int32_t>(line));
    }
    w.Count(fn.constants.size());
    for (const BcConstant& constant : fn.constants) {
      if (const double* number = std::get_if<double>(&constant)) {
        w.Put(kNumberConstant);
        w.Put(*number);
      } else {
        w.Put(kStringConstant);
        w.Str(std::get<std::string>(constant));
      }
    }
  }
  w.Strs(program.global_names);
  w.Strs(program.host_names);
  return out;
}

Result<CompiledProgram> DecodeProgram(std::string_view bytes) {
  Reader in(bytes);
  CompiledProgram program;
  uint32_t n = 0;
  // A function takes at least its name length plus five counts/fields.
  if (!in.Count(6 * sizeof(uint32_t), &n)) {
    return InvalidArgumentError("compiled program: truncated function table");
  }
  program.functions.resize(n);
  for (CompiledFunction& fn : program.functions) {
    if (!DecodeFunction(in, &fn)) {
      return InvalidArgumentError("compiled program: malformed function");
    }
  }
  if (!in.Strs(&program.global_names) || !in.Strs(&program.host_names) || !in.done()) {
    return InvalidArgumentError("compiled program: malformed name tables");
  }
  return program;
}

}  // namespace pkrusafe
