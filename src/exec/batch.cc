#include "exec/batch.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/hash.h"

namespace pier {
namespace exec {

namespace {

// Decode guards: a frame claiming more than this is corrupt, not big.
constexpr uint32_t kMaxBatchRows = 1u << 20;
constexpr uint32_t kMaxBatchCols = 4096;
// Bumped whenever a lane's encoding changes (2: kInt64 as zigzag varints;
// 3: an all-valid column sets kAllValid in its kind byte and omits its
// validity bitmap).
constexpr uint8_t kBatchVersion = 3;
constexpr uint8_t kAllValid = 0x80;

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

}  // namespace

// ---------------------------------------------------------------------------
// Column

Column::Kind Column::KindForType(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return Kind::kInt64;
    case ValueType::kDouble:
      return Kind::kDouble;
    case ValueType::kString:
      return Kind::kString;
    case ValueType::kBool:
      return Kind::kBool;
    case ValueType::kNull:
    case ValueType::kBytes:
      return Kind::kMixed;
  }
  return Kind::kMixed;
}

void Column::PushValidity(bool valid) {
  if ((size_ & 63) == 0) validity_.push_back(0);
  if (valid) validity_.back() |= 1ull << (size_ & 63);
  ++size_;
}

void Column::AppendNull() {
  switch (kind_) {
    case Kind::kInt64:
      i64_.push_back(0);
      break;
    case Kind::kDouble:
      f64_.push_back(0);
      break;
    case Kind::kString:
      str_.emplace_back();
      break;
    case Kind::kBool:
      b8_.push_back(0);
      break;
    case Kind::kMixed:
      mixed_.emplace_back();
      break;
  }
  PushValidity(false);
}

void Column::AppendInt64(int64_t v) {
  i64_.push_back(v);
  PushValidity(true);
}

void Column::AppendDouble(double v) {
  f64_.push_back(v);
  PushValidity(true);
}

void Column::AppendString(std::string s) {
  str_.push_back(std::move(s));
  PushValidity(true);
}

void Column::AppendBool(bool v) {
  b8_.push_back(v ? 1 : 0);
  PushValidity(true);
}

void Column::PromoteToMixed() {
  std::vector<Value> boxed;
  boxed.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed.push_back(ValueAt(i));
  kind_ = Kind::kMixed;
  i64_.clear();
  f64_.clear();
  str_.clear();
  b8_.clear();
  mixed_ = std::move(boxed);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (kind_) {
    case Kind::kInt64:
      if (v.type() == ValueType::kInt64) {
        AppendInt64(v.int64_value());
        return;
      }
      break;
    case Kind::kDouble:
      if (v.type() == ValueType::kDouble) {
        AppendDouble(v.double_value());
        return;
      }
      break;
    case Kind::kString:
      if (v.type() == ValueType::kString) {
        AppendString(v.string_value());
        return;
      }
      break;
    case Kind::kBool:
      if (v.type() == ValueType::kBool) {
        AppendBool(v.bool_value());
        return;
      }
      break;
    case Kind::kMixed:
      mixed_.push_back(v);
      PushValidity(true);
      return;
  }
  // Runtime type disagrees with the storage lane: fall back to boxing.
  PromoteToMixed();
  mixed_.push_back(v);
  PushValidity(true);
}

void Column::AppendFrom(const Column& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  if (src.kind_ == kind_) {
    switch (kind_) {
      case Kind::kInt64:
        AppendInt64(src.i64_[row]);
        return;
      case Kind::kDouble:
        AppendDouble(src.f64_[row]);
        return;
      case Kind::kString:
        AppendString(src.str_[row]);
        return;
      case Kind::kBool:
        AppendBool(src.b8_[row] != 0);
        return;
      case Kind::kMixed:
        mixed_.push_back(src.mixed_[row]);
        PushValidity(true);
        return;
    }
  }
  AppendValue(src.ValueAt(row));
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (kind_) {
    case Kind::kInt64:
      return Value::Int64(i64_[row]);
    case Kind::kDouble:
      return Value::Double(f64_[row]);
    case Kind::kString:
      return Value::String(str_[row]);
    case Kind::kBool:
      return Value::Bool(b8_[row] != 0);
    case Kind::kMixed:
      return mixed_[row];
  }
  return Value::Null();
}

uint64_t Column::CellHash(size_t row) const {
  if (IsNull(row)) return 0x9e3779b97f4a7c15ull;  // Value::Hash of NULL
  switch (kind_) {
    case Kind::kInt64:
      return Mix64(0x1234abcdull ^ static_cast<uint64_t>(i64_[row]));
    case Kind::kDouble: {
      double d = f64_[row];
      double rounded = std::nearbyint(d);
      if (rounded == d && std::abs(d) < 9.2e18) {
        return Mix64(0x1234abcdull ^
                     static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(0x5678efabull ^ bits);
    }
    case Kind::kString:
      return HashBytes(str_[row]);
    case Kind::kBool:
      return Mix64(b8_[row] != 0 ? 2 : 1);
    case Kind::kMixed:
      return mixed_[row].Hash();
  }
  return 0;
}

bool Column::CellEquals(size_t row, const Value& v) const {
  if (IsNull(row)) return v.is_null();
  if (v.is_null()) return false;
  switch (kind_) {
    case Kind::kInt64:
      if (v.type() == ValueType::kInt64) return i64_[row] == v.int64_value();
      break;
    case Kind::kString:
      if (v.type() == ValueType::kString) {
        return str_[row] == v.string_value();
      }
      break;
    default:
      break;
  }
  return ValueAt(row).Compare(v) == 0;
}

void Column::PopBack() {
  --size_;
  validity_[size_ >> 6] &= ~(1ull << (size_ & 63));
  if ((size_ & 63) == 0) validity_.pop_back();
  switch (kind_) {
    case Kind::kInt64:
      i64_.pop_back();
      break;
    case Kind::kDouble:
      f64_.pop_back();
      break;
    case Kind::kString:
      str_.pop_back();
      break;
    case Kind::kBool:
      b8_.pop_back();
      break;
    case Kind::kMixed:
      mixed_.pop_back();
      break;
  }
}

void Column::Reserve(size_t n) {
  validity_.reserve((n + 63) / 64);
  switch (kind_) {
    case Kind::kInt64:
      i64_.reserve(n);
      break;
    case Kind::kDouble:
      f64_.reserve(n);
      break;
    case Kind::kString:
      str_.reserve(n);
      break;
    case Kind::kBool:
      b8_.reserve(n);
      break;
    case Kind::kMixed:
      mixed_.reserve(n);
      break;
  }
}

void Column::ResizeNull(size_t n) {
  Clear();
  size_ = n;
  validity_.assign((n + 63) / 64, 0);
  switch (kind_) {
    case Kind::kInt64:
      i64_.resize(n);
      break;
    case Kind::kDouble:
      f64_.resize(n);
      break;
    case Kind::kString:
      str_.resize(n);
      break;
    case Kind::kBool:
      b8_.resize(n);
      break;
    case Kind::kMixed:
      mixed_.resize(n);
      break;
  }
}

void Column::Clear() {
  size_ = 0;
  validity_.clear();
  i64_.clear();
  f64_.clear();
  str_.clear();
  b8_.clear();
  mixed_.clear();
}

// ---------------------------------------------------------------------------
// RowBatch

RowBatch::RowBatch(const catalog::Schema& schema) {
  cols_.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    cols_.push_back(Column::ForType(schema.column(i).type));
  }
}

RowBatch::RowBatch(const std::vector<ValueType>& types) {
  cols_.reserve(types.size());
  for (ValueType t : types) cols_.push_back(Column::ForType(t));
}

void RowBatch::SetSelection(std::vector<uint32_t> rows) {
  has_selection_ = true;
  selection_ = std::move(rows);
}

void RowBatch::ClearSelection() {
  has_selection_ = false;
  selection_.clear();
}

void RowBatch::ToTuple(size_t row, catalog::Tuple* out) const {
  out->clear();
  out->reserve(cols_.size());
  for (const Column& c : cols_) out->push_back(c.ValueAt(row));
}

RowBatch RowBatch::Compact() const {
  return has_selection_ ? Gather(selection_) : *this;
}

RowBatch RowBatch::Gather(const std::vector<uint32_t>& rows) const {
  RowBatch out;
  out.cols_.reserve(cols_.size());
  for (const Column& c : cols_) out.cols_.push_back(Column(c.kind()));
  for (uint32_t row : rows) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      out.cols_[c].AppendFrom(cols_[c], row);
    }
  }
  out.num_rows_ = rows.size();
  return out;
}

RowBatch RowBatch::SliceLive(size_t start, size_t len) const {
  size_t n = ActiveRows();
  if (start > n) start = n;
  size_t end = (len > n - start) ? n : start + len;
  std::vector<uint32_t> rows;
  rows.reserve(end - start);
  for (size_t i = start; i < end; ++i) rows.push_back(RowId(i));
  return Gather(rows);
}

void RowBatch::TruncateLive(size_t n) {
  if (n >= ActiveRows()) return;
  if (has_selection_) {
    selection_.resize(n);
    return;
  }
  selection_.resize(n);
  for (size_t i = 0; i < n; ++i) selection_[i] = static_cast<uint32_t>(i);
  has_selection_ = true;
}

RowBatch RowBatch::FromColumns(std::vector<Column> cols, size_t rows) {
  RowBatch out;
  out.cols_ = std::move(cols);
  out.num_rows_ = rows;
  return out;
}

RowBatch RowBatch::OfRow(const catalog::Tuple& t) {
  std::vector<ValueType> types;
  types.reserve(t.size());
  for (const Value& v : t) types.push_back(v.type());
  RowBatchBuilder builder(std::move(types));
  builder.Append(t);
  return builder.Take();
}

void RowBatch::Encode(Writer* w) const {
  if (has_selection_) {
    // The wire never carries dead rows: compact first.
    Compact().Encode(w);
    return;
  }
  size_t n = num_rows_;
  w->PutU8(kBatchVersion);
  w->PutVarint32(static_cast<uint32_t>(n));
  w->PutVarint32(static_cast<uint32_t>(cols_.size()));
  size_t vbytes = (n + 7) / 8;
  std::vector<uint8_t> bits(vbytes, 0);
  for (const Column& c : cols_) {
    std::fill(bits.begin(), bits.end(), 0);
    bool all_valid = true;
    for (size_t i = 0; i < n; ++i) {
      if (c.IsNull(i)) {
        all_valid = false;
      } else {
        bits[i >> 3] |= 1u << (i & 7);
      }
    }
    w->PutU8(static_cast<uint8_t>(c.kind()) | (all_valid ? kAllValid : 0));
    if (!all_valid) w->PutRaw(bits.data(), vbytes);
    switch (c.kind()) {
      case Column::Kind::kInt64:
        for (size_t i = 0; i < n; ++i) w->PutVarint64Signed(c.i64_[i]);
        break;
      case Column::Kind::kDouble:
        if constexpr (kLittleEndian) {
          w->PutRaw(c.f64_.data(), n * sizeof(double));
        } else {
          for (size_t i = 0; i < n; ++i) w->PutDouble(c.f64_[i]);
        }
        break;
      case Column::Kind::kString: {
        size_t total = 0;
        for (size_t i = 0; i < n; ++i) total += 5 + c.str_[i].size();
        w->Reserve(total);
        for (size_t i = 0; i < n; ++i) w->PutString(c.str_[i]);
        break;
      }
      case Column::Kind::kBool: {
        std::vector<uint8_t> packed(vbytes, 0);
        for (size_t i = 0; i < n; ++i) {
          if (c.b8_[i]) packed[i >> 3] |= 1u << (i & 7);
        }
        w->PutRaw(packed.data(), vbytes);
        break;
      }
      case Column::Kind::kMixed:
        for (size_t i = 0; i < n; ++i) c.mixed_[i].Serialize(w);
        break;
    }
  }
}

std::string RowBatch::EncodeToBytes() const {
  Writer w;
  Encode(&w);
  return w.Release();
}

Status RowBatch::Decode(Reader* r, RowBatch* out) {
  uint8_t version = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&version));
  if (version != kBatchVersion) return Status::Corruption("bad batch version");
  uint32_t n = 0, ncols = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  PIER_RETURN_IF_ERROR(r->GetVarint32(&ncols));
  if (n > kMaxBatchRows) return Status::Corruption("batch rows out of range");
  if (ncols > kMaxBatchCols) return Status::Corruption("batch cols out of range");
  out->cols_.clear();
  out->num_rows_ = n;
  out->ClearSelection();
  size_t vbytes = (n + 7) / 8;
  // Every allocation below is sized by n only after a remaining() check
  // shows the bytes it stands for are really there.
  std::vector<uint8_t> bits;
  out->cols_.reserve(ncols);
  for (uint32_t ci = 0; ci < ncols; ++ci) {
    uint8_t tag = 0;
    PIER_RETURN_IF_ERROR(r->GetU8(&tag));
    const bool all_valid = (tag & kAllValid) != 0;
    const uint8_t kind = tag & static_cast<uint8_t>(~kAllValid);
    if (kind > static_cast<uint8_t>(Column::Kind::kMixed)) {
      return Status::Corruption("bad column kind");
    }
    Column c(static_cast<Column::Kind>(kind));
    c.size_ = n;
    if (all_valid) {
      // Bits past the last row stay clear, as PushValidity leaves them.
      c.validity_.assign((n + 63) / 64, ~0ull);
      if ((n & 63) != 0) c.validity_.back() = (1ull << (n & 63)) - 1;
    } else {
      if (r->remaining() < vbytes) return Status::Corruption("batch truncated");
      bits.resize(vbytes);
      PIER_RETURN_IF_ERROR(r->GetRaw(bits.data(), vbytes));
      c.validity_.assign((n + 63) / 64, 0);
      for (size_t i = 0; i < n; ++i) {
        if (bits[i >> 3] & (1u << (i & 7))) {
          c.validity_[i >> 6] |= 1ull << (i & 63);
        }
      }
    }
    switch (c.kind_) {
      case Column::Kind::kInt64: {
        // Each varint is at least one byte.
        if (r->remaining() < n) return Status::Corruption("batch truncated");
        c.i64_.resize(n);
        for (size_t i = 0; i < n; ++i) {
          PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&c.i64_[i]));
        }
        break;
      }
      case Column::Kind::kDouble: {
        if (r->remaining() < n * sizeof(double)) {
          return Status::Corruption("batch truncated");
        }
        c.f64_.resize(n);
        if constexpr (kLittleEndian) {
          PIER_RETURN_IF_ERROR(r->GetRaw(c.f64_.data(), n * sizeof(double)));
        } else {
          for (size_t i = 0; i < n; ++i) {
            PIER_RETURN_IF_ERROR(r->GetDouble(&c.f64_[i]));
          }
        }
        break;
      }
      case Column::Kind::kString: {
        c.str_.reserve(n <= 4096 ? n : 4096);
        for (size_t i = 0; i < n; ++i) {
          c.str_.emplace_back();
          PIER_RETURN_IF_ERROR(r->GetString(&c.str_.back()));
        }
        break;
      }
      case Column::Kind::kBool: {
        if (r->remaining() < vbytes) return Status::Corruption("batch truncated");
        std::vector<uint8_t> packed(vbytes);
        PIER_RETURN_IF_ERROR(r->GetRaw(packed.data(), vbytes));
        c.b8_.resize(n);
        for (size_t i = 0; i < n; ++i) {
          c.b8_[i] = (packed[i >> 3] >> (i & 7)) & 1;
        }
        break;
      }
      case Column::Kind::kMixed: {
        c.mixed_.reserve(n <= 4096 ? n : 4096);
        for (size_t i = 0; i < n; ++i) {
          Value v;
          PIER_RETURN_IF_ERROR(Value::Deserialize(r, &v));
          c.mixed_.push_back(std::move(v));
        }
        break;
      }
    }
    out->cols_.push_back(std::move(c));
  }
  return Status::OK();
}

Status RowBatch::FromBytes(std::string_view bytes, RowBatch* out) {
  Reader r(bytes);
  PIER_RETURN_IF_ERROR(Decode(&r, out));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after batch");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RowBatchBuilder

RowBatchBuilder::RowBatchBuilder(const catalog::Schema& schema)
    : batch_(schema) {
  types_.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    types_.push_back(schema.column(i).type);
  }
}

RowBatchBuilder::RowBatchBuilder(std::vector<ValueType> types)
    : types_(std::move(types)), batch_(types_) {}

void RowBatchBuilder::Append(const catalog::Tuple& t) {
  for (size_t i = 0; i < batch_.cols_.size(); ++i) {
    if (!needed_.empty() && needed_[i] == 0) continue;  // bulk-nulled in Take()
    if (i < t.size()) {
      batch_.cols_[i].AppendValue(t[i]);
    } else {
      batch_.cols_[i].AppendNull();
    }
  }
  ++batch_.num_rows_;
}

namespace {

/// Varint decode over raw bytes with the exact failure behavior of
/// Reader::GetVarint64 (truncation and overlong >10-byte encodings fail).
/// AppendSerialized is the per-row hot loop of every scan; going through
/// Reader's Status-returning primitives costs a call and a Status per cell.
inline bool FastVarint(const uint8_t*& p, const uint8_t* end, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (shift < 64) {
    if (p == end) return false;
    uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Steps over a varint without decoding it, with FastVarint's exact
/// failure behavior (truncation and overlong encodings fail). When eight
/// bytes are in bounds the stop byte is found in one word op — skipping is
/// the whole cost of a pruned column, so this loop earns its tuning.
inline bool SkipVarint(const uint8_t*& p, const uint8_t* end) {
  int cap = 10;
  if (kLittleEndian && end - p >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    uint64_t stops = ~chunk & 0x8080808080808080ull;
    if (stops != 0) {
      p += (std::countr_zero(stops) >> 3) + 1;
      return true;
    }
    p += 8;  // 9- and 10-byte varints finish below
    cap = 2;
  }
  for (int k = 0; k < cap; ++k) {
    if (p == end) return false;
    if ((*p++ & 0x80) == 0) return true;
  }
  return false;
}

}  // namespace

void RowBatchBuilder::Reserve(size_t n) {
  reserve_hint_ = n;
  for (Column& c : batch_.cols_) c.Reserve(n);
}

void RowBatchBuilder::SetNeededColumns(const std::vector<int>& needed) {
  needed_.clear();
  if (needed.empty()) return;
  needed_.assign(batch_.cols_.size(), 0);
  for (int c : needed) {
    if (c >= 0 && static_cast<size_t>(c) < needed_.size()) needed_[c] = 1;
  }
}

bool RowBatchBuilder::AppendSerialized(std::string_view bytes) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* end = p + bytes.size();
  uint64_t count = 0;
  if (!FastVarint(p, end, &count)) return false;
  if (count != batch_.cols_.size()) return false;
  // Decode straight into the column lanes; a tag that disagrees with the
  // lane boxes through AppendValue (promoting the column), so malformed
  // rows are the only ones that bail out below. Columns outside the needed
  // set are validated but not materialized: their payload bytes are stepped
  // over and the lane gets a NULL (scan-side column pruning).
  size_t appended = 0;
  bool ok = true;
  for (uint64_t i = 0; i < count && ok; ++i) {
    Column& col = batch_.cols_[i];
    const bool wanted = needed_.empty() || needed_[i] != 0;
    if (p == end) {
      ok = false;
      break;
    }
    uint8_t tag = *p++;
    switch (tag) {
      case static_cast<uint8_t>(ValueType::kNull):
        if (wanted) col.AppendNull();
        break;
      case static_cast<uint8_t>(ValueType::kInt64): {
        if (!wanted) {
          if (!SkipVarint(p, end)) ok = false;
          break;
        }
        uint64_t zz = 0;
        if (!FastVarint(p, end, &zz)) {
          ok = false;
          break;
        }
        int64_t v = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
        if (col.kind() == Column::Kind::kInt64) {
          col.AppendInt64(v);
        } else {
          col.AppendValue(Value::Int64(v));
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kDouble): {
        if (end - p < 8) {
          ok = false;
          break;
        }
        if (!wanted) {
          p += 8;
          break;
        }
        uint64_t bits = 0;
        for (int b = 0; b < 8; ++b) {
          bits |= static_cast<uint64_t>(p[b]) << (8 * b);
        }
        p += 8;
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        if (col.kind() == Column::Kind::kDouble) {
          col.AppendDouble(d);
        } else {
          col.AppendValue(Value::Double(d));
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kBool): {
        uint8_t b = *p++;
        if (!wanted) break;
        if (col.kind() == Column::Kind::kBool) {
          col.AppendBool(b != 0);
        } else {
          col.AppendValue(Value::Bool(b != 0));
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kString):
      case static_cast<uint8_t>(ValueType::kBytes): {
        uint64_t n = 0;
        if (!FastVarint(p, end, &n) ||
            n > static_cast<uint64_t>(end - p)) {
          ok = false;
          break;
        }
        if (!wanted) {
          p += n;
          break;
        }
        std::string s(reinterpret_cast<const char*>(p), n);
        p += n;
        if (tag == static_cast<uint8_t>(ValueType::kString) &&
            col.kind() == Column::Kind::kString) {
          col.AppendString(std::move(s));
        } else if (tag == static_cast<uint8_t>(ValueType::kString)) {
          col.AppendValue(Value::String(std::move(s)));
        } else {
          col.AppendValue(Value::Bytes(std::move(s)));
        }
        break;
      }
      default:
        ok = false;
        break;
    }
    if (ok) ++appended;
  }
  if (ok && p != end) ok = false;
  if (!ok) {
    // Roll back the columns touched before the row went bad (pruned
    // columns were never appended to).
    for (size_t i = 0; i < appended; ++i) {
      if (needed_.empty() || needed_[i] != 0) batch_.cols_[i].PopBack();
    }
    return false;
  }
  ++batch_.num_rows_;
  return true;
}

RowBatch RowBatchBuilder::Take() {
  // Pruned columns carried no per-row storage during the append loop;
  // materialize them as all-null now so the batch is uniformly shaped.
  if (!needed_.empty()) {
    for (size_t i = 0; i < batch_.cols_.size(); ++i) {
      if (needed_[i] == 0) batch_.cols_[i].ResizeNull(batch_.num_rows_);
    }
  }
  RowBatch out = std::move(batch_);
  batch_ = RowBatch(types_);
  if (reserve_hint_ > 0) {
    for (Column& c : batch_.cols_) c.Reserve(reserve_hint_);
  }
  return out;
}

}  // namespace exec
}  // namespace pier
