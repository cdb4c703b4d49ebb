// Exercises the throwing-conversion rule: std::sto* calls throw on bad text,
// so production code parses with std::from_chars and returns a Status.

int64_t BadCount(const std::string& word) { return std::stoll(word); }

double BadLiteral(const std::string& text) {
  double d = std::stod(text);
  return d * std::stoi(text);
}

bool GoodCount(std::string_view word, int64_t* out) {
  return common::ParseNumber(word, out);
}

int SanctionedConversion(const std::string& trusted) {
  return std::stoi(trusted);  // hqcheck:allow(throwing-conversion)
}
