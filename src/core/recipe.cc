#include "src/core/recipe.h"

#include "src/util/io.h"

namespace cdstore {

Bytes FileRecipe::Serialize() const {
  BufferWriter w;
  w.PutU64(file_size);
  PutRecipeEntries(&w, entries);
  return w.Take();
}

Result<FileRecipe> FileRecipe::Deserialize(ConstByteSpan data) {
  FileRecipe recipe;
  BufferReader r(data);
  RETURN_IF_ERROR(r.GetU64(&recipe.file_size));
  RETURN_IF_ERROR(GetRecipeEntries(&r, &recipe.entries));
  return recipe;
}

}  // namespace cdstore
